//! The `sga` command-line analyzer: a miniature Sparrow.
//!
//! ```text
//! sga <file.c> [--engine vanilla|base|sparse] [--domain interval|octagon]
//!              [--widening naive|threshold|delayed]
//!              [--triage octagon|path|both] [--max-steps N] [--timeout-ms N]
//!              [--check] [--dump-ir] [--dump-values] [--stats]
//! sga check <file.c> [--sarif FILE] [--engine vanilla|base|sparse]
//!           [--widening naive|threshold|delayed] [--triage octagon|path|both]
//!           [--max-steps N] [--timeout-ms N] [--isolation thread|process]
//!           [--worker-mem-mb N] [--worker-timeout-ms N]
//! sga analyze <dir> | --corpus units=N,kloc=K,seed=S
//!             [--jobs N (0=auto)] [--cache-dir D] [--no-cache] [--canonical]
//!             [--cache-max-entries N]
//!             [--no-bypass] [--widening naive|threshold|delayed]
//!             [--triage octagon|path|both] [--isolation thread|process]
//!             [--worker-mem-mb N] [--worker-timeout-ms N]
//!             [--keep-going | --fail-fast] [--max-steps N] [--timeout-ms N]
//!             [--resume] [--validate] [--journal-dir D]
//!             [--quarantine-keep N] [--faults SPEC] [--out FILE]
//!             [--baseline REPORT]
//! sga serve <dir> [--tcp ADDR] [--unix PATH] [--port-file FILE]
//!           [--poll-ms N] [--jobs N (0=auto)] [--cache-dir D] [--no-cache]
//!           [--cache-max-entries N] [--no-bypass]
//!           [--widening naive|threshold|delayed] [--triage octagon|path|both]
//!           [--max-steps N] [--timeout-ms N] [--isolation thread|process]
//!           [--worker-mem-mb N] [--worker-timeout-ms N]
//!           [--resume] [--journal-dir D] [--queue-cap N] [--sub-queue-cap N]
//!           [--write-deadline-ms N] [--sub-sndbuf BYTES] [--max-line BYTES]
//!           [--faults SPEC]
//! sga watch <addr> [--once | --max-events N | --report | --status
//!           | --edit UNIT FILE | --shutdown]
//!           [--timeout-ms N (0=none)] [--retries N]
//! sga cache gc <dir> [--keep N] [--max-entries N] [--serve-journal-max N]
//! ```
//!
//! `sga check` runs all four checkers (buffer overrun, null dereference,
//! division by zero, uninitialized read) over one file, re-examines every
//! possible interval alarm against the packed octagon analysis (demoting
//! relationally-refuted ones to *discharged*), prints the structured
//! diagnostics, and with `--sarif` writes a SARIF 2.1.0 log (validated
//! against the vendored schema before it is written).
//!
//! `--triage octagon|path|both` (default `both`) selects the discharge
//! layers: `octagon` re-runs possible alarms against the packed octagon
//! relations only; `path` walks the dominator tree from each alarm to its
//! procedure entry and discharges alarms whose dominating `assume` guard
//! chain is infeasible under the interval bindings (a dead guard, or a
//! contradictory conjunction of stable guards); `both` layers the path
//! pass after the octagon pass, so its discharged set is a superset by
//! construction. Every path discharge carries a `path_infeasible` proving
//! pack naming the guard chain with branch polarities and the refuting
//! domain fact. Definite alarms are never triaged, and a budget-degraded
//! unit skips the path layer. The mode is part of the unit cache key —
//! switching `--triage` between runs (or daemon restarts) never replays
//! another mode's cached or journaled diagnostics.
//!
//! `sga analyze` runs the batch pipeline over every `*.c` file in a
//! directory (or over a generated corpus) and prints a JSON run report.
//! `--baseline old-report.json` diffs the run's open diagnostics against a
//! previous report by content fingerprint — each is classified
//! `new`/`unchanged`, disappeared ones are `fixed` — and a *new definite*
//! alarm fails the run with exit code 6.
//! Under `--keep-going` (the default) a crashing or unparsable unit is
//! recorded in the report while the rest of the batch completes;
//! `--fail-fast` aborts the run on the first failure. `--max-steps` /
//! `--timeout-ms` bound each unit's fixpoint — over-budget units degrade
//! soundly and are marked `degraded`. `--faults` injects deterministic
//! faults for testing (see `pipeline::fault`).
//!
//! `--isolation process` re-executes the binary as one supervised worker
//! process per unit (`thread`, the default, runs units on in-process
//! worker threads): a unit that aborts, overflows its stack, exhausts
//! memory, or spins forever kills only its worker — retried once, then
//! recorded `crashed` — instead of the whole run or daemon.
//! `--worker-mem-mb` caps each worker's address space (`RLIMIT_AS`);
//! `--worker-timeout-ms` arms a wall-clock supervisor that SIGKILLs a
//! stalled worker (with an `RLIMIT_CPU` backstop). The cooperative
//! `--timeout-ms` budget still degrades soundly *inside* the worker —
//! budget exhaustion is `degraded`, a worker kill is `crashed`. Canonical
//! reports are byte-identical across isolation modes, and both modes share
//! cache entries.
//!
//! `--faults` keys directives by **unit index** in the batch driver
//! (`abort@2` = unit 2) but by **1-based round attempt** in `sga serve`
//! (`panic@2` = second edit round); serve accepts only `panic` and `stall`
//! and rejects plans carrying anything else, rather than silently ignoring
//! them.
//!
//! Batch runs are durable and checkable: every finished unit is committed
//! to a write-ahead journal before its cache store, `--resume` replays
//! that journal after a crash or interruption (producing a report
//! byte-identical to an uninterrupted run's), SIGINT/SIGTERM drain
//! in-flight workers and flush a partial report marked `interrupted`, and
//! `--validate` re-checks every unit against the paper's correctness
//! contracts (post-fixpoint, Lemma 1, the Def. 5 side condition) plus the
//! cache. `sga cache gc` prunes quarantined entries and stranded temp
//! files, and with `--max-entries` evicts cache entries beyond the cap,
//! least-recently-accessed first. `--jobs 0` auto-detects the machine's
//! parallelism.
//!
//! `sga serve` keeps a corpus loaded and re-analyzes on edit: clients send
//! line-delimited JSON commands over TCP (`--tcp`, default `127.0.0.1:0`;
//! the bound address goes to `--port-file`) or a Unix socket (`--unix`),
//! and subscribers receive one alarm-diff event per edit round. Only units
//! whose imported symbols changed interface are re-analyzed (see
//! `serve::engine`). `--poll-ms` additionally watches the corpus directory
//! for out-of-band file edits. The daemon is built for hostile traffic:
//! the request queue is bounded (`--queue-cap`) and overload edits are
//! shed with `{"ok":false,"shed":true}`; each subscriber gets its own
//! writer thread with a bounded queue and write deadline
//! (`--sub-queue-cap`, `--write-deadline-ms`), so a stalled consumer is
//! evicted instead of blocking rounds; a panicking round is supervised —
//! the daemon broadcasts `round_degraded`, rebuilds the engine from its
//! journal, and broadcasts `engine_restarted`; every round's unit results
//! are journaled (`--journal-dir`, default `serve-journal/` under the
//! cache), and `--resume` warm-restarts from that journal after a crash
//! with a byte-identical report. `--faults panic@ROUND,stall@ROUND=MS`
//! injects deterministic round-keyed faults for testing. `sga watch
//! <addr>` is the matching client: by default it streams diff events;
//! `--once` exits after the first one,
//! `--edit`/`--report`/`--status`/`--shutdown` issue one command each,
//! under a connect/read deadline (`--timeout-ms`) with shed-edit retry
//! (`--retries`).
//!
//! Exit codes, consolidated:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success (single-file / `check`: no open definite alarm); `--help` |
//! | 1    | single-file mode or `sga check` found an open definite alarm |
//! | 2    | usage, frontend, or IO error |
//! | 3    | batch completed, but some units crashed (partial failure) |
//! | 4    | batch completed, but the validation oracle found violations |
//! | 5    | batch interrupted (SIGINT/SIGTERM); partial report flushed |
//! | 6    | batch completed, but `--baseline` found new definite alarms |
//!
//! When several apply, the most urgent wins: 5 over 4 over 3 over 6
//! (a partial or invalid run's baseline diff is itself suspect).

use sga::analysis::interval::{self, AnalyzeOptions, Engine};
use sga::analysis::triage::{self, TriageMode, TriageOptions};
use sga::analysis::widening::{WideningConfig, WideningStrategy};
use sga::analysis::{checker, octagon, preanalysis};
use sga::diag::Diagnostic;
use sga::domains::Lattice;
use sga::pipeline::{self, FaultPlan, IsolationMode, PipelineOptions, Project};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    file: String,
    engine: Engine,
    domain: Domain,
    /// `--widening`, `--triage` and the budget, where [`analysis_flag`]
    /// puts them.
    analysis: PipelineOptions,
    check: bool,
    dump_ir: bool,
    dump_values: bool,
    stats: bool,
}

#[derive(PartialEq)]
enum Domain {
    Interval,
    Octagon,
}

const USAGE: &str = "usage: sga <file.c> [--engine vanilla|base|sparse] \
                     [--domain interval|octagon] \
                     [--widening naive|threshold|delayed] \
                     [--triage octagon|path|both] \
                     [--max-steps N] [--timeout-ms N] [--check] [--dump-ir] \
                     [--dump-values] [--stats]";

/// Parses a positive-integer flag value.
fn num_flag(flag: &str, value: Option<String>) -> Result<u64, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("bad {flag} {v:?}"))
}

/// `--help`: the usage on stdout, and success — asking is not an error.
fn help(usage: &str) -> ! {
    println!("{usage}");
    std::process::exit(0)
}

/// The analysis flags `sga <file>`, `check`, `analyze` and `serve` share,
/// parsed into the [`PipelineOptions`] fields they set; `Ok(false)` when
/// `arg` is not one of them. The three worker flags exist only where units
/// can run in worker processes (`workers`): single-file mode has none.
fn analysis_flag(
    arg: &str,
    args: &mut impl Iterator<Item = String>,
    opts: &mut PipelineOptions,
    workers: bool,
) -> Result<bool, String> {
    match arg {
        "--widening" => {
            let strategy = args.next().as_deref().and_then(WideningStrategy::parse);
            opts.widening =
                WideningConfig::of(strategy.ok_or("bad --widening (naive|threshold|delayed)")?);
        }
        "--triage" => {
            let mode = args.next().as_deref().and_then(TriageMode::parse);
            opts.triage = mode.ok_or("bad --triage (octagon|path|both)")?;
        }
        "--max-steps" => opts.budget.max_steps = Some(num_flag(arg, args.next())?),
        "--timeout-ms" => opts.budget.timeout_ms = Some(num_flag(arg, args.next())?),
        "--isolation" if workers => {
            let mode = args.next().as_deref().and_then(IsolationMode::parse);
            opts.isolation = mode.ok_or("bad --isolation (thread|process)")?;
        }
        "--worker-mem-mb" if workers => {
            opts.worker_limits.mem_mb = Some(num_flag(arg, args.next())?);
        }
        "--worker-timeout-ms" if workers => {
            opts.worker_limits.timeout_ms = Some(num_flag(arg, args.next())?);
        }
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_args() -> Result<Options, String> {
    let mut file: Option<String> = None;
    let mut engine = Engine::Sparse;
    let mut domain = Domain::Interval;
    let mut analysis = PipelineOptions::default();
    let (mut check, mut dump_ir, mut dump_values, mut stats) = (false, false, false, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if analysis_flag(&arg, &mut args, &mut analysis, false)? {
            continue;
        }
        match arg.as_str() {
            "--engine" => {
                engine = match args.next().as_deref() {
                    Some("vanilla") => Engine::Vanilla,
                    Some("base") => Engine::Base,
                    Some("sparse") => Engine::Sparse,
                    other => return Err(format!("bad --engine {other:?}")),
                }
            }
            "--domain" => {
                domain = match args.next().as_deref() {
                    Some("interval") => Domain::Interval,
                    Some("octagon") => Domain::Octagon,
                    other => return Err(format!("bad --domain {other:?}")),
                }
            }
            "--check" => check = true,
            "--dump-ir" => dump_ir = true,
            "--dump-values" => dump_values = true,
            "--stats" => stats = true,
            "--help" | "-h" => help(USAGE),
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    let file = file.ok_or_else(|| USAGE.to_string())?;
    Ok(Options {
        file,
        engine,
        domain,
        analysis,
        check,
        dump_ir,
        dump_values,
        stats,
    })
}

const ANALYZE_USAGE: &str = "usage: sga analyze <dir> | --corpus units=N,kloc=K,seed=S \
                             [--jobs N (0=auto)] [--cache-dir D] [--no-cache] [--canonical] \
                             [--cache-max-entries N] \
                             [--no-bypass] [--widening naive|threshold|delayed] \
                             [--triage octagon|path|both] \
                             [--isolation thread|process] [--worker-mem-mb N] \
                             [--worker-timeout-ms N] \
                             [--keep-going | --fail-fast] \
                             [--max-steps N] [--timeout-ms N] \
                             [--resume] [--validate] [--journal-dir D] \
                             [--quarantine-keep N] \
                             [--faults SPEC (unit-indexed, e.g. abort@2; \
                             serve keys the same spec by round attempt)] \
                             [--out FILE] [--baseline REPORT]";

fn parse_analyze_args(
    args: impl Iterator<Item = String>,
) -> Result<(Project, PipelineOptions, Option<PathBuf>, bool), String> {
    let mut project: Option<Project> = None;
    let mut opts = PipelineOptions::default();
    let mut out: Option<PathBuf> = None;
    let mut no_cache = false;
    let mut cache_dir: Option<PathBuf> = None;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        if analysis_flag(&arg, &mut args, &mut opts, true)? {
            continue;
        }
        match arg.as_str() {
            "--jobs" => {
                // 0 = auto-detect (resolved by the pipeline).
                let n = args.next().ok_or("--jobs needs a value")?;
                opts.jobs = n
                    .parse::<usize>()
                    .map_err(|_| format!("bad --jobs {n:?}"))?;
            }
            "--cache-max-entries" => {
                opts.cache_max_entries =
                    Some(num_flag("--cache-max-entries", args.next())? as usize);
            }
            "--cache-dir" => {
                cache_dir = Some(PathBuf::from(
                    args.next().ok_or("--cache-dir needs a value")?,
                ));
            }
            "--no-cache" => no_cache = true,
            "--canonical" => opts.canonical = true,
            "--no-bypass" => opts.depgen.bypass = false,
            "--keep-going" => opts.keep_going = true,
            "--fail-fast" => opts.keep_going = false,
            "--resume" => opts.resume = true,
            "--validate" => opts.validate = true,
            "--baseline" => {
                opts.baseline = Some(PathBuf::from(
                    args.next().ok_or("--baseline needs a report file")?,
                ));
            }
            "--journal-dir" => {
                opts.journal_dir = Some(PathBuf::from(
                    args.next().ok_or("--journal-dir needs a value")?,
                ));
            }
            "--quarantine-keep" => {
                opts.quarantine_keep = num_flag("--quarantine-keep", args.next())? as usize;
            }
            "--faults" => {
                let spec = args.next().ok_or("--faults needs a spec")?;
                opts.faults = FaultPlan::parse(&spec)?;
            }
            "--out" => out = Some(PathBuf::from(args.next().ok_or("--out needs a value")?)),
            "--corpus" => {
                let spec = args.next().ok_or("--corpus needs units=N,kloc=K,seed=S")?;
                let (mut units, mut kloc, mut seed) = (4usize, 1usize, 0u64);
                for part in spec.split(',') {
                    match part.split_once('=') {
                        Some(("units", v)) => {
                            units = v.parse().map_err(|_| format!("bad units={v}"))?
                        }
                        Some(("kloc", v)) => {
                            kloc = v.parse().map_err(|_| format!("bad kloc={v}"))?
                        }
                        Some(("seed", v)) => {
                            seed = v.parse().map_err(|_| format!("bad seed={v}"))?
                        }
                        _ => return Err(format!("bad --corpus field {part:?}")),
                    }
                }
                project = Some(Project::Corpus { units, kloc, seed });
            }
            "--help" | "-h" => help(ANALYZE_USAGE),
            other if !other.starts_with('-') && project.is_none() => {
                project = Some(Project::Dir(PathBuf::from(other)));
            }
            other => return Err(format!("unexpected argument `{other}`\n{ANALYZE_USAGE}")),
        }
    }
    let project = project.ok_or_else(|| ANALYZE_USAGE.to_string())?;
    // Default cache: `.sga-cache` inside the analyzed directory. Corpus
    // runs are generated on the fly, so they only cache when asked to.
    opts.cache_dir = if no_cache {
        None
    } else {
        cache_dir.or_else(|| match &project {
            Project::Dir(d) => Some(d.join(".sga-cache")),
            Project::Corpus { .. } => None,
        })
    };
    Ok((project, opts, out, no_cache))
}

fn run_analyze(args: impl Iterator<Item = String>) -> ExitCode {
    let (project, opts, out, _) = match parse_analyze_args(args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    // SIGINT/SIGTERM drain the batch instead of killing it: in-flight units
    // finish and are journaled, and a partial report is still flushed.
    pipeline::interrupt::install();
    match pipeline::run(&project, &opts) {
        Ok(report) => {
            let total = |field: &str| {
                report
                    .get("totals")
                    .and_then(|t| t.get(field))
                    .and_then(|c| c.as_u64())
                    .unwrap_or(0)
            };
            let (crashed, invalid) = (total("crashed"), total("invalid"));
            let interrupted = report
                .get("interrupted")
                .and_then(|i| i.as_bool())
                .unwrap_or(false);
            let new_definite = report
                .get("baseline")
                .and_then(|b| b.get("new_definite"))
                .and_then(|n| n.as_u64())
                .unwrap_or(0);
            let text = report.to_pretty();
            match out {
                Some(path) => {
                    if let Err(e) = std::fs::write(&path, text + "\n") {
                        eprintln!("sga: cannot write {}: {e}", path.display());
                        return ExitCode::from(2);
                    }
                }
                None => println!("{text}"),
            }
            // Most urgent condition wins: an interrupted run is incomplete
            // (rerun with --resume), an invalid run is *wrong*, a crashed
            // run is merely partial.
            if interrupted {
                eprintln!("sga: run interrupted; partial report flushed (rerun with --resume)");
                ExitCode::from(5)
            } else if invalid > 0 {
                eprintln!("sga: {invalid} unit(s) failed validation; see the report");
                ExitCode::from(4)
            } else if crashed > 0 {
                // Partial failure: the batch completed but some units did
                // not; distinct from both success and a usage/IO error.
                eprintln!("sga: {crashed} unit(s) crashed; see the report");
                ExitCode::from(3)
            } else if new_definite > 0 {
                eprintln!(
                    "sga: {new_definite} new definite alarm(s) versus the baseline; see the report"
                );
                ExitCode::from(6)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("sga: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs all four checkers over an analyzed program and triages the
/// possible interval alarms against the octagon analysis. Shared by
/// `sga check` and single-file `--check`.
fn diagnose(
    program: &sga::ir::Program,
    result: &interval::IntervalResult,
    engine: Engine,
    opts: &PipelineOptions,
) -> (Vec<Diagnostic>, triage::TriageStats) {
    let pre = preanalysis::run(program);
    let mut diags = checker::check_all(program, result, &pre);
    let stats = triage::discharge(
        program,
        &pre,
        result,
        &mut diags,
        &TriageOptions {
            engine,
            widening: opts.widening,
            budget: triage::derived_budget(result.stats.iterations, &opts.budget),
            mode: opts.triage,
            ..TriageOptions::default()
        },
    );
    (diags, stats)
}

/// Prints diagnostics plus the summary line; returns whether any open
/// definite alarm remains.
fn print_diagnostics(diags: &[Diagnostic], stats: &triage::TriageStats) -> bool {
    for d in diags {
        println!("{d}");
    }
    let open = diags.iter().filter(|d| d.is_open()).count();
    let definite = diags.iter().filter(|d| d.is_open() && d.definite).count();
    println!(
        "{open} open alarm(s) ({definite} definite), {} discharged by triage \
         ({} octagon, {} path-infeasible){}",
        stats.discharged,
        stats.discharged - stats.discharged_path,
        stats.discharged_path,
        octagon_work(stats).map_or(String::new(), |w| format!("; {w}")),
    );
    definite > 0
}

/// "octagon solved K of N packs, I evaluations", when triage ran one.
fn octagon_work(stats: &triage::TriageStats) -> Option<String> {
    stats.octagon_ran.then(|| {
        format!(
            "octagon solved {} of {} packs, {} evaluations",
            stats.octagon_packs, stats.octagon_packs_total, stats.octagon_iterations
        )
    })
}

/// "pre: R rounds, E of R×C evaluations" — the pre-analysis' work against
/// what re-evaluating every command every round would have cost.
fn pre_work(stats: &sga::analysis::stats::AnalysisStats) -> String {
    format!(
        "pre: {} rounds, {} of {}×{} evaluations",
        stats.pre_rounds, stats.pre_evaluations, stats.pre_rounds, stats.pre_commands
    )
}

/// "fix: P pops — W whole, F forwarded (L locations), S skipped; E edge
/// reads" — what the sparse fixpoint's pops computed (all zero for the dense
/// engines).
fn fix_work(stats: &sga::analysis::stats::AnalysisStats) -> String {
    let w = &stats.fix_work;
    format!(
        "fix: {} pops — {} whole, {} forwarded ({} locations), {} skipped; {} edge reads",
        w.pops(),
        w.whole,
        w.forwarded,
        w.forwarded_locs,
        w.skipped,
        w.edge_reads
    )
}

const CHECK_USAGE: &str = "usage: sga check <file.c> [--sarif FILE] \
                           [--engine vanilla|base|sparse] \
                           [--widening naive|threshold|delayed] \
                           [--triage octagon|path|both] \
                           [--max-steps N] [--timeout-ms N] \
                           [--isolation thread|process] [--worker-mem-mb N] \
                           [--worker-timeout-ms N]";

/// `sga check <file.c> --isolation process`: the file is analyzed in one
/// supervised worker process (the sparse batch path), so a file that
/// aborts or exhausts memory yields a diagnosable exit instead of killing
/// the CLI.
fn run_check_isolated(
    file: &str,
    source: String,
    opts: &PipelineOptions,
    sarif_out: Option<PathBuf>,
) -> ExitCode {
    let err = |msg: String| {
        eprintln!("{msg}");
        ExitCode::from(2)
    };
    let unit = pipeline::UnitInput {
        name: file.to_string(),
        source,
    };
    let mut outcomes = pipeline::analyze_units(&[unit], opts, None);
    let outcome = outcomes.remove(0);
    if let Some(message) = outcome.failure {
        return err(format!("sga: {file}: {message}"));
    }
    let Some(analysis) = outcome.analysis else {
        return err(format!("sga: {file}: isolated worker returned no result"));
    };
    if analysis.degraded {
        eprintln!("sga: analysis budget exhausted; result degraded soundly");
    }
    let diags = analysis.diags;
    let discharged = diags.iter().filter(|d| !d.is_open()).count();
    let discharged_path = diags
        .iter()
        .filter(|d| {
            matches!(
                &d.status,
                sga::diag::Status::Discharged {
                    method: sga::diag::DischargeMethod::PathInfeasible,
                    ..
                }
            )
        })
        .count();
    let stats = triage::TriageStats {
        candidates: diags.iter().filter(|d| d.is_open() && !d.definite).count() + discharged,
        discharged,
        discharged_path,
        degraded: analysis.triage_degraded,
        // The worker's report carries verdicts, not the octagon's counters.
        ..triage::TriageStats::default()
    };
    let definite = print_diagnostics(&diags, &stats);
    if let Some(path) = sarif_out {
        if let Some(code) = write_sarif(file, &diags, &path) {
            return code;
        }
    }
    if definite {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Validates and writes a SARIF log; `Some(code)` on failure.
fn write_sarif(file: &str, diags: &[Diagnostic], path: &PathBuf) -> Option<ExitCode> {
    let log = sga::diag::sarif::to_sarif(file, diags);
    let violations = sga::diag::schema::validate(&log, &sga::diag::schema::vendored_sarif_schema());
    if !violations.is_empty() {
        // Never expected: the emitter and the vendored schema ship
        // together. Refuse to write an invalid log.
        for v in &violations {
            eprintln!("sga: SARIF schema violation: {v}");
        }
        return Some(ExitCode::from(2));
    }
    if let Err(e) = std::fs::write(path, log.to_pretty() + "\n") {
        eprintln!("sga: cannot write {}: {e}", path.display());
        return Some(ExitCode::from(2));
    }
    None
}

/// `sga check <file.c> [--sarif FILE]`: structured diagnostics with octagon
/// triage, optionally exported as a SARIF 2.1.0 log.
fn run_check(args: impl Iterator<Item = String>) -> ExitCode {
    let mut file: Option<String> = None;
    let mut sarif_out: Option<PathBuf> = None;
    let mut engine = Engine::Sparse;
    let mut engine_set = false;
    let mut opts = PipelineOptions::default();
    let mut args = args.peekable();
    let err = |msg: String| {
        eprintln!("{msg}");
        ExitCode::from(2)
    };
    while let Some(arg) = args.next() {
        match analysis_flag(&arg, &mut args, &mut opts, true) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(msg) => return err(msg),
        }
        match arg.as_str() {
            "--sarif" => match args.next() {
                Some(path) => sarif_out = Some(PathBuf::from(path)),
                None => return err("--sarif needs a file".into()),
            },
            "--engine" => {
                engine_set = true;
                engine = match args.next().as_deref() {
                    Some("vanilla") => Engine::Vanilla,
                    Some("base") => Engine::Base,
                    Some("sparse") => Engine::Sparse,
                    other => return err(format!("bad --engine {other:?}")),
                }
            }
            "--help" | "-h" => help(CHECK_USAGE),
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_string()),
            other => return err(format!("unexpected argument `{other}`\n{CHECK_USAGE}")),
        }
    }
    let Some(file) = file else {
        return err(CHECK_USAGE.into());
    };
    let src = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => return err(format!("sga: cannot read {file}: {e}")),
    };
    if opts.isolation == IsolationMode::Process {
        // The isolated worker runs the sparse batch path; an explicit
        // non-sparse engine choice cannot be honored there.
        if engine_set && engine != Engine::Sparse {
            return err("--isolation process runs the sparse engine only".into());
        }
        return run_check_isolated(&file, src, &opts, sarif_out);
    }
    let program = match sga::frontend::parse(&src) {
        Ok(p) => p,
        Err(e) => return err(format!("sga: {file}: {e}")),
    };
    let result = interval::analyze_with(
        &program,
        engine,
        AnalyzeOptions {
            widening: opts.widening,
            budget: opts.budget,
            ..AnalyzeOptions::default()
        },
    );
    if result.stats.degraded {
        eprintln!("sga: analysis budget exhausted; result degraded soundly");
    }
    let (diags, stats) = diagnose(&program, &result, engine, &opts);
    let definite = print_diagnostics(&diags, &stats);
    if let Some(path) = sarif_out {
        if let Some(code) = write_sarif(&file, &diags, &path) {
            return code;
        }
    }
    if definite {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

const CACHE_USAGE: &str = "usage: sga cache gc <dir> [--keep N] [--max-entries N] \
                           [--serve-journal-max N]";

/// `sga cache gc <dir> [--keep N] [--max-entries N] [--serve-journal-max N]`:
/// offline cache maintenance. The daemon's write-ahead journal under
/// `serve-journal/` is spared by default; `--serve-journal-max` prunes it
/// to the N newest records.
fn run_cache(mut args: impl Iterator<Item = String>) -> ExitCode {
    match args.next().as_deref() {
        Some("gc") => {}
        _ => {
            eprintln!("{CACHE_USAGE}");
            return ExitCode::from(2);
        }
    }
    let mut dir: Option<PathBuf> = None;
    let mut keep = pipeline::cache::DEFAULT_QUARANTINE_KEEP;
    let mut max_entries: Option<usize> = None;
    let mut serve_journal_max: Option<usize> = None;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--keep" => match num_flag("--keep", args.next()) {
                Ok(n) => keep = n as usize,
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::from(2);
                }
            },
            "--max-entries" => match num_flag("--max-entries", args.next()) {
                Ok(n) => max_entries = Some(n as usize),
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::from(2);
                }
            },
            "--serve-journal-max" => match num_flag("--serve-journal-max", args.next()) {
                Ok(n) => serve_journal_max = Some(n as usize),
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => help(CACHE_USAGE),
            other if !other.starts_with('-') && dir.is_none() => {
                dir = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("unexpected argument `{other}`\n{CACHE_USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("{CACHE_USAGE}");
        return ExitCode::from(2);
    };
    match pipeline::cache::gc(&dir, keep, max_entries, serve_journal_max) {
        Ok(stats) => {
            println!(
                "sga: cache gc: removed {} quarantined entr{}, {} temp file(s), \
                 evicted {} over the LRU cap, pruned {} serve-journal record(s)",
                stats.quarantine_removed,
                if stats.quarantine_removed == 1 {
                    "y"
                } else {
                    "ies"
                },
                stats.tmp_removed,
                stats.evicted,
                stats.serve_journal_removed,
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sga: cache gc {}: {e}", dir.display());
            ExitCode::from(2)
        }
    }
}

const SERVE_USAGE: &str = "usage: sga serve <dir> [--tcp ADDR] [--unix PATH] \
                           [--port-file FILE] [--poll-ms N] [--jobs N (0=auto)] \
                           [--cache-dir D] [--no-cache] [--cache-max-entries N] \
                           [--no-bypass] [--widening naive|threshold|delayed] \
                           [--triage octagon|path|both] \
                           [--max-steps N] [--timeout-ms N] \
                           [--resume] [--journal-dir D] [--queue-cap N] \
                           [--sub-queue-cap N] [--write-deadline-ms N] \
                           [--sub-sndbuf BYTES] [--max-line BYTES] \
                           [--isolation thread|process] [--worker-mem-mb N] \
                           [--worker-timeout-ms N] \
                           [--faults SPEC (panic@ROUND|stall@ROUND=MS)]";

/// `sga serve <dir>`: incremental analysis daemon over a corpus directory.
fn run_serve(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut dir: Option<PathBuf> = None;
    let mut config = sga::serve::ServerConfig::default();
    let mut opts = PipelineOptions::default();
    let mut no_cache = false;
    let mut cache_dir: Option<PathBuf> = None;
    let mut resume = false;
    let err = |msg: String| {
        eprintln!("{msg}");
        ExitCode::from(2)
    };
    while let Some(arg) = args.next() {
        match analysis_flag(&arg, &mut args, &mut opts, true) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(msg) => return err(msg),
        }
        match arg.as_str() {
            "--tcp" => match args.next() {
                Some(addr) => config.tcp = Some(addr),
                None => return err("--tcp needs an address".into()),
            },
            "--unix" => match args.next() {
                Some(path) => config.unix = Some(PathBuf::from(path)),
                None => return err("--unix needs a path".into()),
            },
            "--port-file" => match args.next() {
                Some(path) => config.port_file = Some(PathBuf::from(path)),
                None => return err("--port-file needs a file".into()),
            },
            "--poll-ms" => match num_flag("--poll-ms", args.next()) {
                Ok(n) => config.poll_ms = Some(n),
                Err(msg) => return err(msg),
            },
            "--jobs" => match args.next() {
                // 0 = auto-detect, as for `sga analyze`.
                Some(n) => match n.parse::<usize>() {
                    Ok(jobs) => opts.jobs = jobs,
                    Err(_) => return err(format!("bad --jobs {n:?}")),
                },
                None => return err("--jobs needs a value".into()),
            },
            "--cache-dir" => match args.next() {
                Some(d) => cache_dir = Some(PathBuf::from(d)),
                None => return err("--cache-dir needs a value".into()),
            },
            "--no-cache" => no_cache = true,
            "--cache-max-entries" => match num_flag("--cache-max-entries", args.next()) {
                Ok(n) => opts.cache_max_entries = Some(n as usize),
                Err(msg) => return err(msg),
            },
            "--no-bypass" => opts.depgen.bypass = false,
            "--resume" => resume = true,
            "--journal-dir" => match args.next() {
                Some(d) => opts.journal_dir = Some(PathBuf::from(d)),
                None => return err("--journal-dir needs a value".into()),
            },
            "--queue-cap" => match num_flag("--queue-cap", args.next()) {
                Ok(n) => config.queue_cap = (n as usize).max(1),
                Err(msg) => return err(msg),
            },
            "--sub-queue-cap" => match num_flag("--sub-queue-cap", args.next()) {
                Ok(n) => config.sub_queue_cap = (n as usize).max(1),
                Err(msg) => return err(msg),
            },
            "--write-deadline-ms" => match num_flag("--write-deadline-ms", args.next()) {
                Ok(n) => config.write_deadline_ms = n.max(1),
                Err(msg) => return err(msg),
            },
            "--sub-sndbuf" => match num_flag("--sub-sndbuf", args.next()) {
                Ok(n) => config.sub_sndbuf = Some(n as usize),
                Err(msg) => return err(msg),
            },
            "--max-line" => match num_flag("--max-line", args.next()) {
                Ok(n) => config.max_request_line = (n as usize).max(1),
                Err(msg) => return err(msg),
            },
            "--faults" => match args.next().as_deref().map(FaultPlan::parse) {
                Some(Ok(plan)) => {
                    // The daemon keys fault directives by 1-based round
                    // attempt and only interprets panic@ and stall@; the
                    // fatal batch directives would kill or hang the whole
                    // daemon, so refuse them up front.
                    let unsupported = plan.serve_unsupported();
                    if !unsupported.is_empty() {
                        return err(format!(
                            "--faults: serve cannot interpret {}: only panic@ROUND and \
                             stall@ROUND=MS apply to the daemon",
                            unsupported.join(", ")
                        ));
                    }
                    config.faults = plan;
                }
                Some(Err(e)) => return err(format!("bad --faults: {e}")),
                None => return err("--faults needs a spec".into()),
            },
            "--help" | "-h" => help(SERVE_USAGE),
            other if !other.starts_with('-') && dir.is_none() => {
                dir = Some(PathBuf::from(other));
            }
            other => return err(format!("unexpected argument `{other}`\n{SERVE_USAGE}")),
        }
    }
    let Some(dir) = dir else {
        return err(SERVE_USAGE.into());
    };
    // A daemon without listeners is unreachable; default to an ephemeral
    // TCP port so `sga serve <dir>` alone is useful.
    if config.tcp.is_none() && config.unix.is_none() {
        config.tcp = Some("127.0.0.1:0".to_string());
    }
    opts.cache_dir = if no_cache {
        None
    } else {
        Some(cache_dir.unwrap_or_else(|| dir.join(".sga-cache")))
    };
    let engine = match sga::serve::Engine::open(&dir, &opts, resume) {
        Ok(e) => e,
        Err(e) => return err(format!("sga: serve {}: {e}", dir.display())),
    };
    let (units, alarms) = (engine.unit_names().len(), engine.alarms());
    let resumed = engine.resumed_units();
    let handle = match sga::serve::serve(engine, &config) {
        Ok(h) => h,
        Err(e) => return err(format!("sga: serve: {e}")),
    };
    let mut endpoints = Vec::new();
    if let Some(addr) = handle.tcp_addr {
        endpoints.push(addr.to_string());
    }
    if let Some(path) = &config.unix {
        endpoints.push(path.display().to_string());
    }
    println!(
        "sga: serving {} on {} ({units} unit(s), {alarms} alarm(s){})",
        dir.display(),
        endpoints.join(" and "),
        if resume {
            format!(", {resumed} resumed from journal")
        } else {
            String::new()
        },
    );
    handle.wait();
    println!("sga: serve: stopped");
    ExitCode::SUCCESS
}

const WATCH_USAGE: &str = "usage: sga watch <addr> [--once | --max-events N | \
                           --report | --status | --edit UNIT FILE | --shutdown] \
                           [--timeout-ms N (0=none, default 10000)] [--retries N]";

/// `sga watch <addr>`: client for a running `sga serve` daemon. `addr` is
/// `host:port` or a Unix socket path. By default streams diff events.
/// Every command runs under a connect/read deadline (`--timeout-ms`,
/// default 10s; 0 disables) so a wedged daemon means a nonzero exit, not a
/// hang; `--edit` retries shed replies with backoff (`--retries`, default
/// 5) so a flooded daemon loses no edit.
fn run_watch(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut max_events: Option<usize> = None;
    let mut timeout_ms: u64 = 10_000;
    let mut retries: u32 = 5;
    // One-shot command, if any: (label, closure producing the reply).
    enum Cmd {
        Stream,
        Report,
        Status,
        Shutdown,
        Edit(String, PathBuf),
    }
    let mut cmd = Cmd::Stream;
    let err = |msg: String| {
        eprintln!("{msg}");
        ExitCode::from(2)
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--once" => max_events = Some(1),
            "--max-events" => match num_flag("--max-events", args.next()) {
                Ok(n) => max_events = Some(n as usize),
                Err(msg) => return err(msg),
            },
            "--report" => cmd = Cmd::Report,
            "--status" => cmd = Cmd::Status,
            "--shutdown" => cmd = Cmd::Shutdown,
            "--edit" => match (args.next(), args.next()) {
                (Some(unit), Some(file)) => cmd = Cmd::Edit(unit, PathBuf::from(file)),
                _ => return err("--edit needs UNIT and FILE".into()),
            },
            "--timeout-ms" => match num_flag("--timeout-ms", args.next()) {
                Ok(n) => timeout_ms = n,
                Err(msg) => return err(msg),
            },
            "--retries" => match num_flag("--retries", args.next()) {
                Ok(n) => retries = n as u32,
                Err(msg) => return err(msg),
            },
            "--help" | "-h" => help(WATCH_USAGE),
            other if !other.starts_with('-') && addr.is_none() => {
                addr = Some(other.to_string());
            }
            other => return err(format!("unexpected argument `{other}`\n{WATCH_USAGE}")),
        }
    }
    let Some(addr) = addr else {
        return err(WATCH_USAGE.into());
    };
    let timeout = (timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms));
    let reply = match cmd {
        Cmd::Stream => {
            // The ack line is printed (and flushed) before any event, so a
            // script can wait for `"subscribed"` in the output instead of
            // sleeping and hoping the subscriber registered in time. The
            // deadline covers connect + ack only — a quiet event stream is
            // not a wedged daemon.
            return match sga::serve::client::watch_ready_t(
                &addr,
                max_events,
                timeout,
                |ack| {
                    println!("{ack}");
                    let _ = std::io::Write::flush(&mut std::io::stdout());
                },
                |event| {
                    println!("{event}");
                    let _ = std::io::Write::flush(&mut std::io::stdout());
                },
            ) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => err(format!("sga: watch {addr}: {e}")),
            };
        }
        Cmd::Report => sga::serve::client::report_t(&addr, timeout),
        Cmd::Status => sga::serve::client::status_t(&addr, timeout),
        Cmd::Shutdown => sga::serve::client::shutdown_t(&addr, timeout),
        Cmd::Edit(unit, file) => match std::fs::read_to_string(&file) {
            Ok(source) => {
                sga::serve::client::edit_with_retry(&addr, &unit, &source, timeout, retries)
                    .map(|(reply, _sheds)| reply)
            }
            Err(e) => return err(format!("sga: cannot read {}: {e}", file.display())),
        },
    };
    match reply {
        Ok(line) => {
            // A final still-shed reply means the daemon's overload outlasted
            // the retry budget — that is a failure, not a success.
            if sga::serve::client::is_shed(&line) {
                eprintln!("sga: watch {addr}: edit shed after {retries} retries: {line}");
                return ExitCode::from(2);
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => err(format!("sga: watch {addr}: {e}")),
    }
}

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1).peekable();
    // The hidden worker dispatch comes before everything else: a re-exec'd
    // `--isolation process` worker must never fall into normal argument
    // parsing, whatever flags the parent was started with.
    if raw.peek().map(String::as_str) == Some(pipeline::worker::WORKER_ARG) {
        return ExitCode::from(pipeline::worker::worker_main() as u8);
    }
    if raw.peek().map(String::as_str) == Some("analyze") {
        raw.next();
        return run_analyze(raw);
    }
    if raw.peek().map(String::as_str) == Some("check") {
        raw.next();
        return run_check(raw);
    }
    if raw.peek().map(String::as_str) == Some("cache") {
        raw.next();
        return run_cache(raw);
    }
    if raw.peek().map(String::as_str) == Some("serve") {
        raw.next();
        return run_serve(raw);
    }
    if raw.peek().map(String::as_str) == Some("watch") {
        raw.next();
        return run_watch(raw);
    }
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let src = match std::fs::read_to_string(&opts.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sga: cannot read {}: {e}", opts.file);
            return ExitCode::from(2);
        }
    };
    let program = match sga::frontend::parse(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sga: {}: {e}", opts.file);
            return ExitCode::from(2);
        }
    };
    if opts.dump_ir {
        print!("{}", sga::ir::pretty::program(&program));
    }

    let mut definite = false;
    match opts.domain {
        Domain::Interval => {
            let result = interval::analyze_with(
                &program,
                opts.engine,
                AnalyzeOptions {
                    widening: opts.analysis.widening,
                    budget: opts.analysis.budget,
                    ..AnalyzeOptions::default()
                },
            );
            if result.stats.degraded {
                eprintln!("sga: analysis budget exhausted; result degraded soundly");
            }
            if opts.stats {
                let s = &result.stats;
                eprintln!(
                    "engine {:?}: total {:?} (pre {:?}, dep {:?}, fix {:?}), {} evaluations, {} locations, {} dep edges, widening {}{}",
                    opts.engine, s.total_time, s.pre_time, s.dep_time, s.fix_time,
                    s.iterations, s.num_locs, s.dep_edges, s.widening,
                    if s.degraded { ", degraded" } else { "" }
                );
                eprintln!("{}", pre_work(s));
                eprintln!("{}", fix_work(s));
            }
            if opts.dump_values {
                for cp in program.all_points() {
                    let st = result.state_at(cp);
                    if st.is_empty() {
                        continue;
                    }
                    println!("{cp}: {}", sga::ir::pretty::cmd(&program, program.cmd(cp)));
                    for (l, v) in st.iter() {
                        if !v.is_bottom() {
                            println!("    {l:?} = {v:?}");
                        }
                    }
                }
            }
            if opts.check {
                let (diags, tstats) = diagnose(&program, &result, opts.engine, &opts.analysis);
                definite = print_diagnostics(&diags, &tstats);
                if opts.stats {
                    if let Some(work) = octagon_work(&tstats) {
                        eprintln!("triage: {work}");
                    }
                }
            }
        }
        Domain::Octagon => {
            let result = octagon::analyze_with(
                &program,
                opts.engine,
                AnalyzeOptions {
                    widening: opts.analysis.widening,
                    budget: opts.analysis.budget,
                    ..AnalyzeOptions::default()
                },
            );
            if result.stats.degraded {
                eprintln!("sga: analysis budget exhausted; result degraded soundly");
            }
            if opts.stats {
                let s = &result.stats;
                eprintln!(
                    "engine {:?} (octagon): total {:?} (fix {:?}), {} evaluations, {} packs (avg size {:.1}), widening {}{}",
                    opts.engine, s.total_time, s.fix_time, s.iterations,
                    result.packs.len(), result.packs.average_size(), s.widening,
                    if s.degraded { ", degraded" } else { "" }
                );
                eprintln!("{}", pre_work(s));
                eprintln!("{}", fix_work(s));
            }
            if opts.dump_values {
                for (v, info) in program.vars.iter_enumerated() {
                    if info.kind != sga::ir::VarKind::Global {
                        continue;
                    }
                    // Show each global's projection at program exit.
                    let main_exit =
                        sga::ir::Cp::new(program.main, program.procs[program.main].exit);
                    println!("{} ∈ {}", info.name, result.itv_of(main_exit, v));
                }
            }
            if opts.check {
                eprintln!("sga: --check is interval-domain only (octagon is for relations)");
            }
        }
    }
    if definite {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
