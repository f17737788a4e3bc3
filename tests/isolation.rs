//! Process-isolation suite: the worker-pool guarantees of
//! `--isolation process`.
//!
//! * the canonical report is byte-identical to the in-thread engine at any
//!   `--jobs` — isolation is an execution detail, not a semantic choice —
//!   and the full report times the same stages in both modes;
//! * aborts, OOM kills, and spinning workers degrade to the `crashed`
//!   outcome (exit 3) while the parent survives and finishes the batch;
//! * a worker that blows the wall-clock limit is SIGKILLed and the report
//!   says so;
//! * cooperative budget exhaustion (`--timeout-ms`) stays `degraded`, not
//!   `crashed` — the two timeouts are distinguishable in the report;
//! * the daemon refuses fault directives it cannot interpret.

use sga::utils::Json;
use std::process::{Command, Output};

fn sga_bin() -> &'static str {
    env!("CARGO_BIN_EXE_sga")
}

fn run_sga(args: &[&str]) -> Output {
    Command::new(sga_bin())
        .args(args)
        .output()
        .expect("spawn sga")
}

fn stdout_json(out: &Output) -> Json {
    let text = String::from_utf8_lossy(&out.stdout);
    Json::parse(&text).unwrap_or_else(|e| panic!("report is not JSON ({e}): {text}"))
}

fn total(report: &Json, field: &str) -> u64 {
    report
        .get("totals")
        .and_then(|t| t.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("totals.{field} missing"))
}

fn isolation_counter(report: &Json, field: &str) -> u64 {
    report
        .get("isolation")
        .and_then(|i| i.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("isolation.{field} missing"))
}

/// The keys of the report's `timing_ms`, in order.
fn timing_keys(report: &Json) -> Vec<String> {
    match report.get("timing_ms") {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("timing_ms is not an object: {other:?}"),
    }
}

// ---- byte identity -----------------------------------------------------

/// Canonical reports are byte-equal across modes and `--jobs`; a full
/// report, cold and under the oracle, times the same stages whichever
/// process analyzed the units: a worker hands its unit's stage times back
/// with the result.
#[test]
fn process_isolation_report_is_byte_identical_to_thread() {
    let mut reports = Vec::new();
    let mut stages = Vec::new();
    for isolation in ["thread", "process"] {
        for jobs in ["1", "4"] {
            let out = run_sga(&[
                "analyze",
                "--corpus",
                "units=4,kloc=1,seed=11",
                "--canonical",
                "--no-cache",
                "--jobs",
                jobs,
                "--isolation",
                isolation,
            ]);
            assert!(
                out.status.success(),
                "clean corpus failed under --isolation {isolation} --jobs {jobs}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            reports.push(out.stdout);
        }
        let out = run_sga(&[
            "analyze",
            "--corpus",
            "units=4,kloc=1,seed=11",
            "--no-cache",
            "--validate",
            "--isolation",
            isolation,
        ]);
        assert!(
            out.status.success(),
            "--isolation {isolation} --validate failed"
        );
        stages.push(timing_keys(&stdout_json(&out)));
    }
    for r in &reports[1..] {
        assert_eq!(
            &reports[0], r,
            "canonical report must not depend on isolation mode or jobs"
        );
    }
    assert_eq!(stages[0], stages[1], "thread and process time other stages");
    let want = [
        "load", "parse", "pre", "defuse", "dep", "fix", "check", "triage", "validate", "wall",
    ];
    assert_eq!(stages[0], want);
}

// ---- fatal faults survive as crashed outcomes --------------------------

#[test]
fn abort_oom_and_spin_degrade_to_crashed_while_the_parent_survives() {
    let out = run_sga(&[
        "analyze",
        "--corpus",
        "units=8,kloc=1,seed=11",
        "--no-cache",
        "--jobs",
        "2",
        "--isolation",
        "process",
        "--worker-mem-mb",
        "512",
        "--worker-timeout-ms",
        "60000",
        "--faults",
        "abort@2,oom@4=4096,spin@6=500",
    ]);
    // Exit 3: partial failure, parent alive to render the report.
    assert_eq!(
        out.status.code(),
        Some(3),
        "expected exit 3 (crashed units)"
    );
    let report = stdout_json(&out);
    assert_eq!(total(&report, "crashed"), 3);
    assert_eq!(total(&report, "units"), 8);
    // Each fatal unit dies on both attempts; the OOM heuristic must
    // classify at least the oom@4 deaths.
    assert!(isolation_counter(&report, "killed") >= 3);
    assert!(isolation_counter(&report, "retried") >= 3);
    assert!(isolation_counter(&report, "oom") >= 1);
    let units = report.get("units").and_then(Json::as_arr).expect("units");
    let crashed: Vec<&str> = units
        .iter()
        .filter(|u| u.get("outcome").and_then(Json::as_str) == Some("crashed"))
        .map(|u| u.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(crashed, ["unit002", "unit004", "unit006"]);
}

#[test]
fn stack_overflow_is_contained_by_the_worker_process() {
    let out = run_sga(&[
        "analyze",
        "--corpus",
        "units=3,kloc=1,seed=11",
        "--no-cache",
        "--jobs",
        "1",
        "--isolation",
        "process",
        "--faults",
        "stackoverflow@1",
    ]);
    assert_eq!(out.status.code(), Some(3));
    let report = stdout_json(&out);
    assert_eq!(total(&report, "crashed"), 1);
    let units = report.get("units").and_then(Json::as_arr).expect("units");
    let ok = units
        .iter()
        .filter(|u| u.get("outcome").and_then(Json::as_str) == Some("ok"))
        .count();
    assert_eq!(ok, 2, "the other two units must finish");
}

// ---- hard stall vs cooperative timeout ---------------------------------

#[test]
fn hard_stall_is_sigkilled_and_reported_as_a_wall_clock_kill() {
    // A single unit that spins for two minutes: the 1500 ms supervisor
    // must SIGKILL it (twice, with the retry) long before that. One unit
    // only, so a slow loaded machine cannot trip the limit on a clean
    // sibling unit.
    let out = run_sga(&[
        "analyze",
        "--corpus",
        "units=1,kloc=1,seed=11",
        "--no-cache",
        "--jobs",
        "1",
        "--isolation",
        "process",
        "--worker-timeout-ms",
        "1500",
        "--faults",
        "spin@0=120000",
    ]);
    assert_eq!(out.status.code(), Some(3));
    let report = stdout_json(&out);
    assert_eq!(total(&report, "crashed"), 1);
    assert!(isolation_counter(&report, "stalls") >= 1);
    let units = report.get("units").and_then(Json::as_arr).expect("units");
    let error = units[0]
        .get("error")
        .and_then(Json::as_str)
        .expect("crashed unit error");
    assert!(
        error.contains("wall-clock"),
        "stall error should name the wall-clock limit, got: {error}"
    );
}

#[test]
fn cooperative_timeout_degrades_instead_of_crashing() {
    let out = run_sga(&[
        "analyze",
        "--corpus",
        "units=2,kloc=1,seed=11",
        "--no-cache",
        "--jobs",
        "1",
        "--isolation",
        "process",
        "--timeout-ms",
        "1",
    ]);
    // Degraded is sound, not fatal: exit 0 and zero crashes.
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = stdout_json(&out);
    assert_eq!(total(&report, "crashed"), 0);
    assert_eq!(total(&report, "degraded"), 2);
}

// ---- env override for foreign harnesses --------------------------------

#[test]
fn worker_binary_env_override_is_honored() {
    let out = Command::new(sga_bin())
        .env("SGA_WORKER_BIN", sga_bin())
        .args([
            "analyze",
            "--corpus",
            "units=2,kloc=1,seed=11",
            "--no-cache",
            "--jobs",
            "1",
            "--isolation",
            "process",
        ])
        .output()
        .expect("spawn sga");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

// ---- isolated single-file check ----------------------------------------

#[test]
fn isolated_check_analyzes_and_reports_frontend_errors_without_dying() {
    let dir = std::env::temp_dir().join(format!("sga-iso-check-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ok = dir.join("ok.c");
    std::fs::write(&ok, "int main() { int a = 1; return a; }\n").unwrap();
    let out = run_sga(&["check", ok.to_str().unwrap(), "--isolation", "process"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let bad = dir.join("bad.c");
    std::fs::write(&bad, "int main( {\n").unwrap();
    let out = run_sga(&["check", bad.to_str().unwrap(), "--isolation", "process"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("bad.c"),
        "frontend error should name the file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `sga check F` in-thread (the staged sparse pipeline) and `sga check F
/// --isolation process` (a worker running the batch unit analysis) print
/// the same diagnostic lines and exit alike on every `tests/alarms` unit.
/// Only the summary line's octagon-work clause may differ: the worker's
/// report carries verdicts, not the octagon's counters.
#[test]
fn check_in_thread_and_in_a_worker_print_the_same_diagnostics() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/alarms");
    let lines = |out: &Output| -> Vec<String> {
        let text = String::from_utf8_lossy(&out.stdout);
        let line = |l: &str| match l.split_once("; octagon solved") {
            Some((head, _)) => head.to_string(),
            None => l.to_string(),
        };
        text.lines().map(line).collect()
    };
    let (mut units, mut diagnostics) = (0, 0);
    for entry in std::fs::read_dir(dir).expect("tests/alarms") {
        let path = entry.expect("a directory entry").path();
        if path.extension().is_none_or(|e| e != "c") {
            continue;
        }
        let file = path.to_str().expect("a UTF-8 path");
        let thread = run_sga(&["check", file]);
        let process = run_sga(&["check", file, "--isolation", "process"]);
        let printed = lines(&thread);
        assert_eq!(printed, lines(&process), "{file}");
        assert_eq!(thread.status.code(), process.status.code(), "{file}");
        units += 1;
        diagnostics += printed.len() - 1;
    }
    assert!(units >= 20, "tests/alarms has {units} units");
    assert!(diagnostics >= 20, "{diagnostics} diagnostics printed");
}

// ---- the LRU cap reaches the worker ------------------------------------

/// A cache hit inside a worker process refreshes its entry's access time,
/// so `--cache-max-entries` evicts by last use under `--isolation process`
/// exactly as on threads, not by store time.
#[test]
fn isolated_cache_hits_refresh_the_lru() {
    let dir = std::env::temp_dir().join(format!("sga-iso-lru-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.to_str().unwrap();
    let corpus = [
        "analyze",
        "--corpus",
        "units=3,kloc=1,seed=11",
        "--cache-dir",
        cache,
    ];
    let fill = run_sga(&corpus);
    assert!(
        fill.status.success(),
        "{}",
        String::from_utf8_lossy(&fill.stderr)
    );

    let entries: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    assert_eq!(entries.len(), 3, "one entry per unit");
    let past = std::time::SystemTime::now() - std::time::Duration::from_secs(3600);
    for entry in &entries {
        std::fs::File::options()
            .append(true)
            .open(entry)
            .and_then(|f| f.set_modified(past))
            .unwrap();
    }

    let capped = [
        &corpus[..],
        &["--isolation", "process", "--cache-max-entries", "3"],
    ]
    .concat();
    let rerun = run_sga(&capped);
    assert!(
        rerun.status.success(),
        "{}",
        String::from_utf8_lossy(&rerun.stderr)
    );
    let report = stdout_json(&rerun);
    assert_eq!(total(&report, "cache_misses"), 0, "every unit must hit");
    for entry in &entries {
        let modified = std::fs::metadata(entry).unwrap().modified().unwrap();
        assert!(
            modified > past,
            "{} was hit but not refreshed",
            entry.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- daemon fault-plan rejection ---------------------------------------

#[test]
fn serve_rejects_fault_directives_it_cannot_interpret() {
    let out = run_sga(&["serve", "/nonexistent", "--faults", "abort@1,panic@2"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("serve cannot interpret abort"),
        "got: {stderr}"
    );
}
