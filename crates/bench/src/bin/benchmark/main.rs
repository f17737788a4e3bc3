//! The repository benchmark: four workloads, end-to-end metrics from an
//! untraced run, and a per-layer ledger from a traced run. See `README.md`
//! beside this file for every metric and workload by name.
//!
//! ```text
//! benchmark run    [--workload NAME|all] [--seed S] [--seconds N] [--trace 0|1] [--trace-out FILE]
//! benchmark repeat [--workload NAME|all] [--sets N] [--seed S] [--seconds N]
//! benchmark ladder
//! benchmark describe          (prints BENCHMARK.json)
//! ```
//!
//! `run` prints every metric by name with unit and sample count, then one
//! JSON object per workload (`correct`, `attempted`, `failed`, `metrics`),
//! and exits non-zero on any wrong answer. Run it from the repository root:
//! scratch files go to `.bench_work/` there, and the golden corpus is read
//! from `tests/alarms/`.

mod alloc;
mod check;
mod measure;
mod probe;
mod report;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// `--seconds` when not given; also `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "usage: benchmark run [--workload NAME|all] [--seed S] [--seconds N] \
                     [--trace 0|1] [--trace-out FILE]\n       \
                     benchmark repeat [--workload NAME|all] [--sets N] [--seed S] [--seconds N]\n       \
                     benchmark ladder\n       \
                     benchmark describe";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    sets: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: workloads::ALL.to_vec(),
        seed: workloads::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: None,
        sets: 2,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if name != "all" {
                    let w = Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?;
                    out.workloads = vec![w];
                }
            }
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if out.seconds.is_nan() || out.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--sets" => {
                out.sets = value("a number")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?
            }
            "--trace-out" => out.trace_out = Some(PathBuf::from(value("a path")?)),
            "--trace" => {
                out.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: `{other}` is neither 0 nor 1")),
                }
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(out)
}

/// Exit codes of `run` and `repeat`.
const EXIT_WRONG: u8 = 1;
const EXIT_UNRESOLVED: u8 = 3;

/// Runs each selected workload, prints it, and exits non-zero if any
/// answer was wrong.
fn cmd_run(args: &Args) -> Result<u8, String> {
    let mut correct = true;
    for &w in &args.workloads {
        if args.trace {
            let out = args.trace_out.clone().unwrap_or_else(|| {
                PathBuf::from(measure::WORK_ROOT)
                    .join("trace")
                    .join(format!("{}.jsonl", w.name()))
            });
            let traced = traced::run(w, args.seed, &out)?;
            correct &= traced.check.passed();
            report::print_traced(w.name(), args.seed, &traced.ledger, &traced.check);
        } else {
            let result = measure::run(w, args.seed, args.seconds)?;
            correct &= result.check.passed();
            report::print_untraced(w.name(), args.seed, &result);
        }
    }
    Ok(if correct { 0 } else { EXIT_WRONG })
}

/// One row of `repeat`'s table: a metric as two sets measured it.
fn compare(
    workload: &str,
    metric: &str,
    sets: (usize, usize),
    a: &report::Reading,
    b: &report::Reading,
    bound: f64,
) -> report::Verdict {
    let verdict = report::verdict(a, b, bound);
    println!(
        "{:<12} {:<18} {:>12.4} {:>12.4} {:>+7.2}% {:>5.0}% {:>7.1}%  {:?} (set {} / set {})",
        workload,
        metric,
        a.value,
        b.value,
        (b.value - a.value) / a.value * 100.0,
        bound * 100.0,
        a.spread().max(b.spread()) * 100.0,
        verdict,
        sets.0,
        sets.1
    );
    verdict
}

/// Runs the untraced set `--sets` times on the same code, the sets of one
/// workload back to back, and compares every pair of sets on every
/// workload × end-to-end metric against that metric's bound.
fn cmd_repeat(args: &Args) -> Result<u8, String> {
    let sets = args.sets.max(2);
    let mut correct = true;
    let mut verdicts = Vec::new();
    let mut rows: Vec<(Workload, Vec<measure::RunResult>)> = Vec::new();
    for &w in &args.workloads {
        let mut results = Vec::new();
        for set in 0..sets {
            println!("--- set {set}");
            let r = measure::run(w, args.seed, args.seconds)?;
            report::print_untraced(w.name(), args.seed, &r);
            correct &= r.check.passed();
            results.push(r);
        }
        rows.push((w, results));
    }
    println!("--- repeat: every pair of sets; spread = how far one run's processes lie apart");
    println!(
        "{:<12} {:<18} {:>12} {:>12} {:>8} {:>6} {:>8}  verdict",
        "workload", "metric", "set i", "set j", "diff", "bound", "spread"
    );
    for (w, results) in &rows {
        for (i, a) in results.iter().enumerate() {
            for (j, b) in results.iter().enumerate().skip(i + 1) {
                for m in report::END_TO_END.iter().chain(&report::PRINTED) {
                    // `pass_p90_ms` is compared where both sets have it.
                    if let (Some(x), Some(y)) =
                        (report::reading(a, m.name), report::reading(b, m.name))
                    {
                        verdicts.push(compare(w.name(), m.name, (i, j), &x, &y, m.bound));
                    }
                }
                // Any increase of the failed share is a regression.
                let share = |r: &measure::RunResult| {
                    r.check.failed as f64 / r.check.attempted.max(1) as f64
                };
                let worse = share(b) > share(a);
                println!(
                    "{:<12} {:<18} {:>12.6} {:>12.6} {:>33}  {} (set {i} / set {j})",
                    w.name(),
                    "failed_share",
                    share(a),
                    share(b),
                    "",
                    if worse { "Fail" } else { "Pass" }
                );
                correct &= !worse;
            }
        }
    }
    let count = |v: report::Verdict| verdicts.iter().filter(|x| **x == v).count();
    let (failed, unresolved) = (
        count(report::Verdict::Fail),
        count(report::Verdict::Unresolved),
    );
    println!(
        "{} comparisons: {} pass, {failed} fail, {unresolved} unresolved{}",
        verdicts.len(),
        count(report::Verdict::Pass),
        if unresolved > 0 {
            " (the host moved during a run: repeat it)"
        } else {
            ""
        }
    );
    Ok(if !correct || failed > 0 {
        EXIT_WRONG
    } else if unresolved > 0 {
        EXIT_UNRESOLVED
    } else {
        0
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    // Worker re-exec (the traced `warm_rerun` run measures process
    // isolation, whose pool spawns the current executable) and the
    // harness's own child modes come before ordinary argument parsing.
    if command == sga::pipeline::worker::WORKER_ARG {
        return ExitCode::from(sga::pipeline::worker::worker_main() as u8);
    }
    if command == measure::PREPARE_ARG || command == measure::MEASURE_ARG {
        return ExitCode::from(measure::child_main(command, &args[1..]));
    }
    let outcome = match command {
        "ladder" if args.len() == 1 => traced::ladder().map(|ok| if ok { 0 } else { EXIT_WRONG }),
        "describe" if args.len() == 1 => {
            print!("{}", report::describe(DEFAULT_SECONDS));
            Ok(0)
        }
        "run" => parse_args(&args[1..]).and_then(|a| cmd_run(&a)),
        "repeat" => parse_args(&args[1..]).and_then(|a| cmd_repeat(&a)),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
