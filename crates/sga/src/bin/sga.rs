//! The `sga` command-line analyzer: a miniature Sparrow.
//!
//! ```text
//! sga <file.c>          analyze one file; print values, stats, alarms
//! sga check <file.c>    structured diagnostics with triage, optionally SARIF
//! sga analyze <dir>     the batch pipeline over a directory or a generated
//!                       corpus: one JSON run report
//! sga serve <dir>       the incremental daemon: re-analyze on edit
//! sga watch <addr>      the daemon's client
//! sga cache gc <dir>    offline cache maintenance
//! ```
//!
//! Every flag is one row of [`FLAGS`] — its spelling, its value, the
//! subcommands that take it, its help line and the field it sets — and
//! `sga <subcommand> --help` prints the rows that subcommand takes.
//!
//! `check` runs all four checkers (buffer overrun, null dereference, division
//! by zero, uninitialized read) and demotes the possible alarms its triage
//! layers refute to *discharged*: `octagon` re-runs them against the packed
//! octagon relations, `path` discharges alarms whose dominating guard chain
//! is infeasible under the interval bindings, `both` (the default) layers the
//! second after the first. Definite alarms are never triaged, and the mode is
//! part of every cache key.
//!
//! `analyze` records a crashing unit and finishes the batch; every finished
//! unit is journaled before its cache store, so a killed run resumes
//! byte-identically, and SIGINT/SIGTERM drain in-flight units and flush a
//! partial report. Under `--isolation process` each unit runs in a
//! supervised re-exec of this binary, so an abort, OOM, stack overflow or
//! spin kills only its worker (retried once, then `crashed`). `--faults`
//! keys its directives by unit index for `analyze` and by 1-based round
//! attempt for `serve`, which accepts only `panic` and `stall`.
//!
//! `serve` keeps a corpus loaded, re-analyzes only units whose imported
//! symbols changed interface, streams one alarm diff per edit round to
//! subscribers, journals every round under the cache, and warm-restarts from
//! that journal under `--resume`.
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
use sga::serve::ServerConfig;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use Set::{Num, On, Pair, Parse, Text};
use Sub::{Analyze, Check, File, Gc, Serve, Watch};

/// The subcommands: where a flag applies.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Sub {
    File,
    Check,
    Analyze,
    Serve,
    Watch,
    Gc,
}

impl Sub {
    const ALL: [Sub; 6] = [File, Check, Analyze, Serve, Watch, Gc];

    /// The head of the subcommand's usage.
    fn synopsis(self) -> &'static str {
        match self {
            File => "sga <file.c>",
            Check => "sga check <file.c>",
            Analyze => "sga analyze <dir> | --corpus units=N,kloc=K,seed=S",
            Serve => "sga serve <dir>",
            Watch => "sga watch <addr>",
            Gc => "sga cache gc <dir>",
        }
    }
}

/// Every subcommand that analyzes.
const ANALYSIS: &[Sub] = &[File, Check, Analyze, Serve];
/// Where units can run in worker processes.
const WORKERS: &[Sub] = &[Check, Analyze, Serve];
/// The multi-unit drivers, with a cache and a journal.
const DRIVERS: &[Sub] = &[Analyze, Serve];

#[derive(Clone, Copy, Debug, Default, PartialEq)]
enum Domain {
    #[default]
    Interval,
    Octagon,
}

/// What `sga watch` asks the daemon; by default, to stream diff events.
#[derive(Debug, Default)]
enum Ask {
    #[default]
    Stream,
    Report,
    Status,
    Shutdown,
    Edit(String, PathBuf),
}

/// Everything a command line sets: what [`parse`] returns.
#[derive(Debug, Default)]
struct Args {
    /// The file, directory or daemon address.
    operand: String,
    help: bool,
    /// The analysis and driver options; `cache_dir` already resolved.
    opts: PipelineOptions,
    /// `None` is the default sparse engine, the one `check --isolation
    /// process` can run.
    engine: Option<Engine>,
    domain: Domain,
    check: bool,
    dump_ir: bool,
    dump_values: bool,
    stats: bool,
    sarif: Option<PathBuf>,
    corpus: Option<Project>,
    out: Option<PathBuf>,
    no_cache: bool,
    server: ServerConfig,
    ask: Ask,
    max_events: Option<usize>,
    deadline_ms: Option<u64>,
    retries: Option<u32>,
    keep: Option<usize>,
    max_entries: Option<usize>,
}

/// How a flag sets its field.
#[derive(Clone, Copy)]
enum Set {
    /// A switch: no value.
    On(fn(&mut Args)),
    /// A count, size or duration.
    Num(fn(&mut Args, u64)),
    /// A path or an address, taken as given.
    Text(fn(&mut Args, String)),
    /// A value the row parses; the empty error means "not one of the row's
    /// values".
    Parse(fn(&mut Args, &str) -> Result<(), String>),
    /// `--edit UNIT FILE`'s two values.
    Pair(fn(&mut Args, String, String)),
}

/// One spelling of one flag, declared once: the parser and every `--help`
/// read it. A spelling with two meanings is two rows with disjoint `on`.
struct Flag {
    name: &'static str,
    /// The value it takes as the usage shows it; empty for a switch.
    value: &'static str,
    on: &'static [Sub],
    help: &'static str,
    set: Set,
}

const fn flag(
    name: &'static str,
    value: &'static str,
    on: &'static [Sub],
    help: &'static str,
    set: Set,
) -> Flag {
    Flag {
        name,
        value,
        on,
        help,
        set,
    }
}

#[rustfmt::skip]
static FLAGS: &[Flag] = &[
    flag("--engine", "vanilla|base|sparse", &[File, Check], "fixpoint engine (default sparse)",
         Parse(|a, v| pick(&mut a.engine, engine(v).map(Some)))),
    flag("--domain", "interval|octagon", &[File], "abstract domain (default interval)",
         Parse(|a, v| pick(&mut a.domain, domain(v)))),
    flag("--check", "", &[File], "run the checkers and triage; exit 1 on an open definite alarm",
         On(|a| a.check = true)),
    flag("--dump-ir", "", &[File], "print the lowered IR",
         On(|a| a.dump_ir = true)),
    flag("--dump-values", "", &[File], "print the fixpoint's values",
         On(|a| a.dump_values = true)),
    flag("--stats", "", &[File], "print times and work counts on stderr",
         On(|a| a.stats = true)),
    flag("--widening", "naive|threshold|delayed", ANALYSIS, "widening strategy (default delayed)",
         Parse(|a, v| pick(&mut a.opts.widening, WideningStrategy::parse(v).map(WideningConfig::of)))),
    flag("--triage", "octagon|path|both", ANALYSIS, "discharge layers over possible alarms (default both)",
         Parse(|a, v| pick(&mut a.opts.triage, TriageMode::parse(v)))),
    flag("--max-steps", "N", ANALYSIS, "fixpoint step budget per unit; past it, degrade soundly",
         Num(|a, n| a.opts.budget.max_steps = Some(n))),
    flag("--timeout-ms", "N", ANALYSIS, "fixpoint time budget per unit; past it, degrade soundly",
         Num(|a, n| a.opts.budget.timeout_ms = Some(n))),
    flag("--isolation", "thread|process", WORKERS, "run units on threads or in supervised worker processes (default thread)",
         Parse(|a, v| pick(&mut a.opts.isolation, IsolationMode::parse(v)))),
    flag("--worker-mem-mb", "N", WORKERS, "address-space cap of a worker process",
         Num(|a, n| a.opts.worker_limits.mem_mb = Some(n))),
    flag("--worker-timeout-ms", "N", WORKERS, "wall-clock limit of a worker process, then SIGKILL",
         Num(|a, n| a.opts.worker_limits.timeout_ms = Some(n))),
    flag("--sarif", "FILE", &[Check], "also write a SARIF 2.1.0 log",
         Text(|a, v| a.sarif = Some(v.into()))),
    flag("--corpus", "units=N,kloc=K,seed=S", &[Analyze], "analyze a generated corpus instead of a directory",
         Parse(|a, v| corpus(v).map(|p| a.corpus = Some(p)))),
    flag("--jobs", "N", DRIVERS, "worker threads; 0 = one per CPU (default 1)",
         Num(|a, n| a.opts.jobs = n as usize)),
    flag("--cache-dir", "D", DRIVERS, "cache directory, journals under it (default <dir>/.sga-cache)",
         Text(|a, v| a.opts.cache_dir = Some(v.into()))),
    flag("--no-cache", "", DRIVERS, "no cache, and so no journal",
         On(|a| a.no_cache = true)),
    flag("--cache-max-entries", "N", DRIVERS, "evict cache entries beyond N, least recently used first",
         Num(|a, n| a.opts.cache_max_entries = Some(n as usize))),
    flag("--no-bypass", "", DRIVERS, "keep the dependency edges bypassing would remove",
         On(|a| a.opts.depgen.bypass = false)),
    flag("--resume", "", DRIVERS, "replay the journal a killed or interrupted run left",
         On(|a| a.opts.resume = true)),
    flag("--canonical", "", &[Analyze], "timing-free report, byte-comparable across runs",
         On(|a| a.opts.canonical = true)),
    flag("--fail-fast", "", &[Analyze], "stop at the first failing unit instead of recording it",
         On(|a| a.opts.keep_going = false)),
    flag("--validate", "", &[Analyze], "re-check every unit against the correctness oracle",
         On(|a| a.opts.validate = true)),
    flag("--faults", "SPEC", &[Analyze], "inject faults by unit index, e.g. abort@2 (testing)",
         Parse(|a, v| FaultPlan::parse(v).map(|p| a.opts.faults = p))),
    flag("--out", "FILE", &[Analyze], "write the report to FILE instead of stdout",
         Text(|a, v| a.out = Some(v.into()))),
    flag("--baseline", "REPORT", &[Analyze], "diff against an earlier report; exit 6 on a new definite alarm",
         Text(|a, v| a.opts.baseline = Some(v.into()))),
    flag("--tcp", "ADDR", &[Serve], "listen on TCP (default 127.0.0.1:0 without --unix)",
         Text(|a, v| a.server.tcp = Some(v))),
    flag("--unix", "PATH", &[Serve], "listen on a Unix socket",
         Text(|a, v| a.server.unix = Some(v.into()))),
    flag("--port-file", "FILE", &[Serve], "write the bound TCP address to FILE",
         Text(|a, v| a.server.port_file = Some(v.into()))),
    flag("--poll-ms", "N", &[Serve], "also pick up file writes in <dir>, polling every N ms",
         Num(|a, n| a.server.poll_ms = Some(n))),
    flag("--faults", "SPEC", &[Serve], "inject faults by round attempt: panic@R, stall@R=MS (testing)",
         Parse(serve_faults)),
    flag("--once", "", &[Watch], "exit after the first diff event",
         On(|a| a.max_events = Some(1))),
    flag("--max-events", "N", &[Watch], "exit after N diff events",
         Num(|a, n| a.max_events = Some(n as usize))),
    flag("--report", "", &[Watch], "print the accumulated report",
         On(|a| a.ask = Ask::Report)),
    flag("--status", "", &[Watch], "print the daemon's status",
         On(|a| a.ask = Ask::Status)),
    flag("--shutdown", "", &[Watch], "stop the daemon",
         On(|a| a.ask = Ask::Shutdown)),
    flag("--edit", "UNIT FILE", &[Watch], "replace UNIT's source with FILE's",
         Pair(|a, unit, file| a.ask = Ask::Edit(unit, file.into()))),
    flag("--timeout-ms", "N", &[Watch], "connect and reply deadline; 0 = none (default 10000)",
         Num(|a, n| a.deadline_ms = Some(n))),
    flag("--retries", "N", &[Watch], "resend a shed edit up to N times (default 5)",
         Num(|a, n| a.retries = Some(n as u32))),
    flag("--keep", "N", &[Gc], "quarantined entries to keep (default 16)",
         Num(|a, n| a.keep = Some(n as usize))),
    flag("--max-entries", "N", &[Gc], "evict cache entries beyond N, least recently used first",
         Num(|a, n| a.max_entries = Some(n as usize))),
    flag("--help", "", &Sub::ALL, "print this help (also -h)",
         On(|a| a.help = true)),
];

impl Flag {
    /// Takes the row's values off `args` and sets its field.
    fn apply(&self, a: &mut Args, args: &mut impl Iterator<Item = String>) -> Result<(), String> {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{} needs {}", self.name, self.value))
        };
        match self.set {
            On(set) => set(a),
            Num(set) => {
                let v = value()?;
                set(a, v.parse().map_err(|_| self.bad(&v, String::new()))?);
            }
            Text(set) => set(a, value()?),
            Parse(set) => {
                let v = value()?;
                set(a, &v).map_err(|why| self.bad(&v, why))?;
            }
            Pair(set) => {
                let first = value()?;
                set(a, first, value()?);
            }
        }
        Ok(())
    }

    /// The error for a value the row cannot take.
    fn bad(&self, v: &str, why: String) -> String {
        let why = if why.is_empty() {
            format!("expected {}", self.value)
        } else {
            why
        };
        format!("bad {} {v:?}: {why}", self.name)
    }
}

/// Stores a parsed value, or fails with the empty error.
fn pick<T>(field: &mut T, parsed: Option<T>) -> Result<(), String> {
    *field = parsed.ok_or_else(String::new)?;
    Ok(())
}

fn engine(v: &str) -> Option<Engine> {
    match v {
        "vanilla" => Some(Engine::Vanilla),
        "base" => Some(Engine::Base),
        "sparse" => Some(Engine::Sparse),
        _ => None,
    }
}

fn domain(v: &str) -> Option<Domain> {
    match v {
        "interval" => Some(Domain::Interval),
        "octagon" => Some(Domain::Octagon),
        _ => None,
    }
}

/// `--corpus units=N,kloc=K,seed=S`; a missing field keeps its default (4
/// units of 1 kloc, seed 0).
fn corpus(spec: &str) -> Result<Project, String> {
    let (mut units, mut kloc, mut seed) = (4usize, 1usize, 0u64);
    for part in spec.split(',') {
        let bad = || format!("bad field {part:?}");
        match part.split_once('=') {
            Some(("units", v)) => units = v.parse().map_err(|_| bad())?,
            Some(("kloc", v)) => kloc = v.parse().map_err(|_| bad())?,
            Some(("seed", v)) => seed = v.parse().map_err(|_| bad())?,
            _ => return Err(bad()),
        }
    }
    Ok(Project::Corpus { units, kloc, seed })
}

/// Serve's `--faults`: the daemon interprets only `panic@` and `stall@`.
/// The fatal batch directives would kill or hang the whole daemon, so they
/// are refused up front rather than silently ignored.
fn serve_faults(a: &mut Args, spec: &str) -> Result<(), String> {
    let plan = FaultPlan::parse(spec)?;
    let unsupported = plan.serve_unsupported();
    if !unsupported.is_empty() {
        return Err(format!(
            "serve cannot interpret {}: only panic@ROUND and stall@ROUND=MS apply to the daemon",
            unsupported.join(", ")
        ));
    }
    a.server.faults = plan;
    Ok(())
}

/// `sub`'s usage: its synopsis, then one line per flag it takes.
fn usage(sub: Sub) -> String {
    let rows: Vec<(String, &str)> = FLAGS
        .iter()
        .filter(|f| f.on.contains(&sub))
        .map(|f| (format!("{} {}", f.name, f.value), f.help))
        .collect();
    let width = rows
        .iter()
        .map(|(spelled, _)| spelled.len())
        .max()
        .unwrap_or(0);
    let mut text = format!("usage: {} [flags]", sub.synopsis());
    for (spelled, help) in rows {
        text += &format!("\n  {spelled:<width$}  {help}");
    }
    text
}

/// Parses one subcommand's arguments against [`FLAGS`]: each flag a row
/// gives `sub` sets its field, the one bare word is the operand. The cache
/// directory comes back resolved: `--cache-dir`, else `.sga-cache` inside
/// the analyzed directory (a generated corpus caches only when asked to),
/// and none under `--no-cache`.
fn parse(sub: Sub, args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args::default();
    let mut operand = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let name = if arg == "-h" { "--help" } else { arg.as_str() };
        if let Some(flag) = FLAGS.iter().find(|f| f.name == name && f.on.contains(&sub)) {
            flag.apply(&mut a, &mut args)?;
            if a.help {
                return Ok(a);
            }
        } else if !arg.starts_with('-') && operand.is_none() {
            operand = Some(arg);
        } else {
            return Err(format!("unexpected argument `{arg}`\n{}", usage(sub)));
        }
    }
    match (operand, &a.corpus) {
        (Some(operand), None) => a.operand = operand,
        (None, Some(_)) => {}
        _ => return Err(usage(sub)),
    }
    if a.no_cache {
        a.opts.cache_dir = None;
    } else if DRIVERS.contains(&sub) && a.corpus.is_none() && a.opts.cache_dir.is_none() {
        a.opts.cache_dir = Some(Path::new(&a.operand).join(".sga-cache"));
    }
    Ok(a)
}

/// A usage, frontend or IO error: the message on stderr, exit 2.
fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::from(2)
}

/// Exit 1 when an open definite alarm remains.
fn alarm_exit(definite: bool) -> ExitCode {
    if definite {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn run_analyze(a: Args) -> ExitCode {
    let project = a
        .corpus
        .unwrap_or_else(|| Project::Dir(PathBuf::from(a.operand)));
    // SIGINT/SIGTERM drain the batch instead of killing it: in-flight units
    // finish and are journaled, and a partial report is still flushed.
    pipeline::interrupt::install();
    let report = match pipeline::run(&project, &a.opts) {
        Ok(report) => report,
        Err(e) => return fail(format!("sga: {e}")),
    };
    let count = |block: &str, field: &str| {
        report
            .get(block)
            .and_then(|t| t.get(field))
            .and_then(|c| c.as_u64())
            .unwrap_or(0)
    };
    let (crashed, invalid) = (count("totals", "crashed"), count("totals", "invalid"));
    let new_definite = count("baseline", "new_definite");
    let interrupted = report
        .get("interrupted")
        .and_then(|i| i.as_bool())
        .unwrap_or(false);
    let text = report.to_pretty();
    match a.out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, text + "\n") {
                return fail(format!("sga: cannot write {}: {e}", path.display()));
            }
        }
        None => println!("{text}"),
    }
    // Most urgent condition wins: an interrupted run is incomplete (rerun
    // with --resume), an invalid run is *wrong*, a crashed run is merely
    // partial.
    if interrupted {
        eprintln!("sga: run interrupted; partial report flushed (rerun with --resume)");
        ExitCode::from(5)
    } else if invalid > 0 {
        eprintln!("sga: {invalid} unit(s) failed validation; see the report");
        ExitCode::from(4)
    } else if crashed > 0 {
        // Partial failure: the batch completed but some units did not;
        // distinct from both success and a usage/IO error.
        eprintln!("sga: {crashed} unit(s) crashed; see the report");
        ExitCode::from(3)
    } else if new_definite > 0 {
        eprintln!("sga: {new_definite} new definite alarm(s) versus the baseline; see the report");
        ExitCode::from(6)
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs all four checkers over an analyzed program and triages the
/// possible interval alarms. Shared by `sga check` and single-file
/// `--check`.
fn diagnose(
    program: &sga::ir::Program,
    result: &interval::IntervalResult,
    engine: Engine,
    opts: &PipelineOptions,
) -> (Vec<Diagnostic>, triage::TriageStats) {
    let pre = preanalysis::run(program);
    let (icfg, du, deps) = interval::stage_inputs(program, &pre, engine);
    let q = interval::Inputs::new(program, result, &icfg, &du, deps.as_ref());
    let mut diags = checker::check_all_staged(&q, &pre);
    let stats = triage::discharge_staged(
        &pre,
        &q,
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

/// "octagon solved K of N packs at P of C points, I evaluations", when
/// triage ran one.
fn octagon_work(stats: &triage::TriageStats) -> Option<String> {
    stats.octagon_ran.then(|| {
        format!(
            "octagon solved {} of {} packs at {} of {} points, {} evaluations",
            stats.octagon_packs,
            stats.octagon_packs_total,
            stats.octagon_points,
            stats.octagon_points_total,
            stats.octagon_iterations
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

/// `sga check <file.c> --isolation process`: the file is analyzed in one
/// supervised worker process (the sparse batch path), so a file that
/// aborts or exhausts memory yields a diagnosable exit instead of killing
/// the CLI.
fn run_check_isolated(
    file: &str,
    source: String,
    opts: &PipelineOptions,
) -> Result<(Vec<Diagnostic>, triage::TriageStats), String> {
    let unit = pipeline::UnitInput {
        name: file.to_string(),
        source,
    };
    let outcome = pipeline::analyze_units(&[unit], opts, None).remove(0);
    if let Some(message) = outcome.failure {
        return Err(format!("sga: {file}: {message}"));
    }
    let Some(analysis) = outcome.analysis else {
        return Err(format!("sga: {file}: isolated worker returned no result"));
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
    Ok((diags, stats))
}

/// Validates and writes a SARIF log.
fn write_sarif(file: &str, diags: &[Diagnostic], path: &Path) -> Result<(), String> {
    let log = sga::diag::sarif::to_sarif(file, diags);
    let violations = sga::diag::schema::validate(&log, &sga::diag::schema::vendored_sarif_schema());
    if !violations.is_empty() {
        // Never expected: the emitter and the vendored schema ship
        // together. Refuse to write an invalid log.
        let lines: Vec<String> = violations
            .iter()
            .map(|v| format!("sga: SARIF schema violation: {v}"))
            .collect();
        return Err(lines.join("\n"));
    }
    std::fs::write(path, log.to_pretty() + "\n")
        .map_err(|e| format!("sga: cannot write {}: {e}", path.display()))
}

/// `sga check <file.c>`: structured diagnostics with triage, optionally
/// exported as a SARIF 2.1.0 log.
fn run_check(a: Args) -> ExitCode {
    let file = a.operand;
    let src = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => return fail(format!("sga: cannot read {file}: {e}")),
    };
    let (diags, stats) = if a.opts.isolation == IsolationMode::Process {
        // The isolated worker runs the sparse batch path; an explicit
        // non-sparse engine choice cannot be honored there.
        if a.engine.is_some_and(|e| e != Engine::Sparse) {
            return fail("--isolation process runs the sparse engine only");
        }
        match run_check_isolated(&file, src, &a.opts) {
            Ok(checked) => checked,
            Err(msg) => return fail(msg),
        }
    } else {
        let program = match sga::frontend::parse(&src) {
            Ok(p) => p,
            Err(e) => return fail(format!("sga: {file}: {e}")),
        };
        let engine = a.engine.unwrap_or(Engine::Sparse);
        let result = interval::analyze_with(
            &program,
            engine,
            AnalyzeOptions {
                widening: a.opts.widening,
                budget: a.opts.budget,
                ..AnalyzeOptions::default()
            },
        );
        if result.stats.degraded {
            eprintln!("sga: analysis budget exhausted; result degraded soundly");
        }
        diagnose(&program, &result, engine, &a.opts)
    };
    let definite = print_diagnostics(&diags, &stats);
    if let Some(path) = a.sarif {
        if let Err(msg) = write_sarif(&file, &diags, &path) {
            return fail(msg);
        }
    }
    alarm_exit(definite)
}

/// `sga cache gc <dir>`: offline cache maintenance. The daemon's round
/// journal under `serve-journal/` is spared.
fn run_gc(a: Args) -> ExitCode {
    let keep = a.keep.unwrap_or(pipeline::store::DEFAULT_QUARANTINE_KEEP);
    match pipeline::cache::gc(Path::new(&a.operand), keep, a.max_entries) {
        Ok(stats) => {
            println!(
                "sga: cache gc: removed {} quarantined entr{}, {} temp file(s), \
                 evicted {} over the LRU cap",
                stats.quarantine_removed,
                if stats.quarantine_removed == 1 {
                    "y"
                } else {
                    "ies"
                },
                stats.tmp_removed,
                stats.evicted,
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(format!("sga: cache gc {}: {e}", a.operand)),
    }
}

/// `sga serve <dir>`: incremental analysis daemon over a corpus directory.
fn run_serve(a: Args) -> ExitCode {
    let dir = PathBuf::from(a.operand);
    let mut config = a.server;
    // A daemon without listeners is unreachable; default to an ephemeral
    // TCP port so `sga serve <dir>` alone is useful.
    if config.tcp.is_none() && config.unix.is_none() {
        config.tcp = Some("127.0.0.1:0".to_string());
    }
    let resume = a.opts.resume;
    let engine = match sga::serve::Engine::open(&dir, &a.opts, resume) {
        Ok(e) => e,
        Err(e) => return fail(format!("sga: serve {}: {e}", dir.display())),
    };
    let (units, alarms) = (engine.unit_names().len(), engine.alarms());
    let resumed = engine.resumed_units();
    let handle = match sga::serve::serve(engine, &config) {
        Ok(h) => h,
        Err(e) => return fail(format!("sga: serve: {e}")),
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

/// `sga watch <addr>`: client for a running `sga serve` daemon. `addr` is
/// `host:port` or a Unix socket path. By default streams diff events.
/// Every command runs under a connect/read deadline so a wedged daemon
/// means a nonzero exit, not a hang; `--edit` retries shed replies with
/// backoff so a flooded daemon loses no edit.
fn run_watch(a: Args) -> ExitCode {
    let addr = a.operand;
    let deadline_ms = a.deadline_ms.unwrap_or(10_000);
    let timeout = (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms));
    let retries = a.retries.unwrap_or(5);
    let reply = match a.ask {
        Ask::Stream => {
            // The ack line is printed (and flushed) before any event, so a
            // script can wait for `"subscribed"` in the output instead of
            // sleeping and hoping the subscriber registered in time. The
            // deadline covers connect + ack only — a quiet event stream is
            // not a wedged daemon.
            let print = |line: &str| {
                println!("{line}");
                let _ = std::io::Write::flush(&mut std::io::stdout());
            };
            return match sga::serve::client::watch_ready_t(
                &addr,
                a.max_events,
                timeout,
                print,
                print,
            ) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => fail(format!("sga: watch {addr}: {e}")),
            };
        }
        Ask::Report => sga::serve::client::report_t(&addr, timeout),
        Ask::Status => sga::serve::client::status_t(&addr, timeout),
        Ask::Shutdown => sga::serve::client::shutdown_t(&addr, timeout),
        Ask::Edit(unit, file) => match std::fs::read_to_string(&file) {
            Ok(source) => {
                sga::serve::client::edit_with_retry(&addr, &unit, &source, timeout, retries)
                    .map(|(reply, _sheds)| reply)
            }
            Err(e) => return fail(format!("sga: cannot read {}: {e}", file.display())),
        },
    };
    match reply {
        // A final still-shed reply means the daemon's overload outlasted
        // the retry budget — that is a failure, not a success.
        Ok(line) if sga::serve::client::is_shed(&line) => fail(format!(
            "sga: watch {addr}: edit shed after {retries} retries: {line}"
        )),
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(format!("sga: watch {addr}: {e}")),
    }
}

/// `sga <file.c>`: one file through one engine and domain.
fn run_file(a: Args) -> ExitCode {
    let file = &a.operand;
    let src = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => return fail(format!("sga: cannot read {file}: {e}")),
    };
    let program = match sga::frontend::parse(&src) {
        Ok(p) => p,
        Err(e) => return fail(format!("sga: {file}: {e}")),
    };
    if a.dump_ir {
        print!("{}", sga::ir::pretty::program(&program));
    }
    let engine = a.engine.unwrap_or(Engine::Sparse);
    let options = AnalyzeOptions {
        widening: a.opts.widening,
        budget: a.opts.budget,
        ..AnalyzeOptions::default()
    };
    let mut definite = false;
    match a.domain {
        Domain::Interval => {
            let result = interval::analyze_with(&program, engine, options);
            if result.stats.degraded {
                eprintln!("sga: analysis budget exhausted; result degraded soundly");
            }
            if a.stats {
                let s = &result.stats;
                eprintln!(
                    "engine {:?}: total {:?} (pre {:?}, dep {:?}, fix {:?}), {} evaluations, {} locations, {} dep edges, widening {}{}",
                    engine, s.total_time, s.pre_time, s.dep_time, s.fix_time,
                    s.iterations, s.num_locs, s.dep_edges, s.widening,
                    if s.degraded { ", degraded" } else { "" }
                );
                eprintln!("{}", pre_work(s));
                eprintln!("{}", fix_work(s));
            }
            if a.dump_values {
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
            if a.check {
                let (diags, tstats) = diagnose(&program, &result, engine, &a.opts);
                definite = print_diagnostics(&diags, &tstats);
                if a.stats {
                    if let Some(work) = octagon_work(&tstats) {
                        eprintln!("triage: {work}");
                    }
                }
            }
        }
        Domain::Octagon => {
            let result = octagon::analyze_with(&program, engine, options);
            if result.stats.degraded {
                eprintln!("sga: analysis budget exhausted; result degraded soundly");
            }
            if a.stats {
                let s = &result.stats;
                eprintln!(
                    "engine {:?} (octagon): total {:?} (fix {:?}), {} evaluations, {} packs (avg size {:.1}), widening {}{}",
                    engine, s.total_time, s.fix_time, s.iterations,
                    result.packs.len(), result.packs.average_size(), s.widening,
                    if s.degraded { ", degraded" } else { "" }
                );
                eprintln!("{}", pre_work(s));
                eprintln!("{}", fix_work(s));
            }
            if a.dump_values {
                // Each global's projection at program exit.
                let main_exit = sga::ir::Cp::new(program.main, program.procs[program.main].exit);
                for (v, info) in program.vars.iter_enumerated() {
                    if info.kind == sga::ir::VarKind::Global {
                        println!("{} ∈ {}", info.name, result.itv_of(main_exit, v));
                    }
                }
            }
            if a.check {
                eprintln!("sga: --check is interval-domain only (octagon is for relations)");
            }
        }
    }
    alarm_exit(definite)
}

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1).peekable();
    // The hidden worker dispatch comes before everything else: a re-exec'd
    // `--isolation process` worker must never fall into normal argument
    // parsing, whatever flags the parent was started with.
    if raw.peek().map(String::as_str) == Some(pipeline::worker::WORKER_ARG) {
        return ExitCode::from(pipeline::worker::worker_main() as u8);
    }
    let sub = match raw.peek().map(String::as_str) {
        Some("check") => Check,
        Some("analyze") => Analyze,
        Some("serve") => Serve,
        Some("watch") => Watch,
        Some("cache") => Gc,
        _ => File,
    };
    if sub != File {
        raw.next();
    }
    if sub == Gc && raw.next().as_deref() != Some("gc") {
        return fail(usage(Gc));
    }
    let args = match parse(sub, raw) {
        Ok(args) => args,
        Err(msg) => return fail(msg),
    };
    if args.help {
        // Asking is not an error: the usage on stdout, and success.
        println!("{}", usage(sub));
        return ExitCode::SUCCESS;
    }
    match sub {
        File => run_file(args),
        Check => run_check(args),
        Analyze => run_analyze(args),
        Serve => run_serve(args),
        Watch => run_watch(args),
        Gc => run_gc(args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The values to parse a row with: each alternative of a choice, else
    /// one sample per word of its value.
    fn samples(f: &Flag) -> Vec<Vec<String>> {
        if f.value.contains('|') {
            return f.value.split('|').map(|v| vec![v.to_string()]).collect();
        }
        let sample = |word: &str| match word {
            "N" => "7",
            "SPEC" => "panic@1",
            w if w.starts_with("units=") => "units=2,kloc=1,seed=3",
            _ => "x",
        };
        vec![f
            .value
            .split_whitespace()
            .map(|w| sample(w).to_string())
            .collect()]
    }

    /// What `sub` parses `flag` (and its values) into, rendered; every line
    /// carries an operand but `--corpus`'s, which stands in for one.
    fn parsed(sub: Sub, flag: &[String]) -> Result<String, String> {
        let operand = flag.first().is_none_or(|f| f != "--corpus");
        let line = operand.then(|| "unit".to_string()).into_iter();
        parse(sub, line.chain(flag.iter().cloned())).map(|a| format!("{a:?}"))
    }

    /// Every row: the subcommands it names accept it, every other rejects
    /// it as an unexpected argument, their `--help` shows it, and each of
    /// its values changes what the parser returns.
    #[test]
    fn every_row_is_accepted_documented_and_effective_where_declared() {
        let spellings: BTreeSet<&str> = FLAGS.iter().map(|f| f.name).collect();
        assert_eq!(spellings.len(), 41, "{spellings:?}");
        for f in FLAGS {
            let line = |values: &[String]| [&[f.name.to_string()], values].concat();
            for sub in Sub::ALL {
                let rows = FLAGS
                    .iter()
                    .filter(|g| g.name == f.name && g.on.contains(&sub));
                match rows.count() {
                    0 => {
                        let err = parsed(sub, &line(&samples(f)[0])).unwrap_err();
                        let want = format!("unexpected argument `{}`\nusage: sga", f.name);
                        assert!(err.starts_with(&want), "{} on {sub:?}: {err}", f.name);
                    }
                    1 => {}
                    _ => panic!("{} has two rows for {sub:?}", f.name),
                }
            }
            for &sub in f.on {
                assert!(
                    usage(sub).contains(&format!("\n  {} ", f.name)),
                    "{} missing from {sub:?}'s usage",
                    f.name
                );
                let default = parsed(sub, &[]).unwrap();
                let results: Vec<String> = samples(f)
                    .iter()
                    .map(|values| parsed(sub, &line(values)).unwrap())
                    .collect();
                let distinct: BTreeSet<&String> = results.iter().collect();
                assert_eq!(distinct.len(), results.len(), "{} on {sub:?}", f.name);
                assert!(
                    results.iter().any(|r| *r != default),
                    "{} changes nothing on {sub:?}",
                    f.name
                );
            }
        }
    }

    #[test]
    fn values_are_checked_and_named_in_the_error() {
        let err = |line: &[&str]| parse(Analyze, line.iter().map(|s| s.to_string())).unwrap_err();
        assert_eq!(err(&["d", "--jobs", "x"]), "bad --jobs \"x\": expected N");
        assert_eq!(err(&["d", "--jobs"]), "--jobs needs N");
        assert_eq!(
            err(&["d", "--triage", "all"]),
            "bad --triage \"all\": expected octagon|path|both"
        );
        assert!(err(&["d", "--corpus", "units=2"]).starts_with("usage: sga analyze"));
        let serve = parse(Serve, ["d", "--faults", "oom@1=9"].map(String::from)).unwrap_err();
        assert!(serve.contains("serve cannot interpret oom"), "{serve}");
    }
}
