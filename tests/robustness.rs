//! Robustness suite: the fault-tolerance guarantees of the batch driver.
//!
//! * a panicking unit is isolated and recorded; the rest of the batch
//!   completes and the report stays deterministic at any `--jobs`;
//! * budget exhaustion degrades *soundly* — every degraded binding covers
//!   the corresponding unbounded binding;
//! * the cache heals itself from truncated, bit-flipped, and stale-schema
//!   entries without changing the report;
//! * transient cache IO errors are retried and cost nothing;
//! * the frontend rejects malformed C with structured errors, never panics;
//! * a partial failure surfaces as exit code 3 from `sga analyze`.

use sga::analysis::budget::Budget;
use sga::analysis::interval::{analyze, analyze_with, AnalyzeOptions, Engine};
use sga::domains::Lattice;
use sga::pipeline::fault::FaultPlan;
use sga::pipeline::store::{seal, unseal};
use sga::pipeline::{run, PipelineError, PipelineOptions, Project};
use sga::utils::Json;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

fn corpus(units: usize) -> Project {
    Project::Corpus {
        units,
        kloc: 1,
        seed: 11,
    }
}

/// A fresh (empty) scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sga-robust-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---- panic isolation ---------------------------------------------------

#[test]
fn crashed_unit_is_isolated_and_report_stays_deterministic() {
    let faults = FaultPlan::parse("panic@1").unwrap();
    let render = |jobs: usize, faults: &FaultPlan| {
        run(
            &corpus(4),
            &PipelineOptions {
                jobs,
                canonical: true,
                faults: faults.clone(),
                ..PipelineOptions::default()
            },
        )
        .expect("keep-going run succeeds despite the crash")
    };

    let clean = render(1, &FaultPlan::none());
    let faulted = render(1, &faults);

    // The headline invariant survives injected panics: byte-identical
    // canonical reports at any worker count.
    for jobs in [2, 8] {
        assert_eq!(
            faulted.to_pretty(),
            render(jobs, &faults).to_pretty(),
            "faulted report differs between jobs=1 and jobs={jobs}"
        );
    }

    // The crash is recorded, not propagated.
    let units = faulted.get("units").unwrap().as_arr().unwrap();
    assert_eq!(
        units[1].get("outcome").unwrap().as_str().unwrap(),
        "crashed"
    );
    assert!(units[1]
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("injected fault"));
    let totals = faulted.get("totals").unwrap();
    assert_eq!(totals.get("crashed").unwrap().as_u64(), Some(1));

    // Blast-radius containment: every unit the plan does not touch reports
    // byte-identically to the fault-free run.
    let clean_units = clean.get("units").unwrap().as_arr().unwrap();
    for i in [0usize, 2, 3] {
        assert_eq!(
            units[i].to_pretty(),
            clean_units[i].to_pretty(),
            "fault leaked into unit {i}"
        );
    }
}

#[test]
fn fail_fast_aborts_on_first_crash() {
    let err = run(
        &corpus(3),
        &PipelineOptions {
            keep_going: false,
            faults: FaultPlan::parse("panic@2").unwrap(),
            ..PipelineOptions::default()
        },
    )
    .expect_err("fail-fast must surface the crash");
    match err {
        PipelineError::Crashed { unit, message } => {
            assert_eq!(unit, "unit002");
            assert!(message.contains("injected fault"));
        }
        other => panic!("expected Crashed, got {other}"),
    }
}

// ---- budgets and sound degradation -------------------------------------

#[test]
fn budget_degradation_is_sound() {
    let src = sga::cgen::generate(&sga::cgen::GenConfig::sized(13, 1));
    let program = sga::frontend::parse(&src).expect("generated source parses");

    for engine in [Engine::Sparse, Engine::Base] {
        let full = analyze(&program, engine);
        assert!(!full.stats.degraded, "{engine:?}: unbounded run degraded");
        assert!(full.stats.iterations > 0);

        let degraded = analyze_with(
            &program,
            engine,
            AnalyzeOptions {
                budget: Budget::with_max_steps(8),
                ..AnalyzeOptions::default()
            },
        );
        assert!(
            degraded.stats.degraded,
            "{engine:?}: an 8-step budget must exhaust on a 1-kloc unit"
        );

        // Soundness of degradation: binding for binding, the degraded
        // fixpoint over-approximates the unbounded one.
        for (cp, st) in &full.values {
            for (loc, v) in st.iter() {
                let dv = degraded.value_at(*cp, loc);
                assert!(
                    v.le(&dv),
                    "{engine:?} at {cp} {loc:?}: degraded {dv:?} does not cover {v:?}"
                );
            }
        }
    }
}

#[test]
fn pipeline_marks_budget_exhaustion_degraded() {
    let report = run(
        &corpus(2),
        &PipelineOptions {
            budget: Budget::with_max_steps(8),
            canonical: true,
            ..PipelineOptions::default()
        },
    )
    .unwrap();
    let totals = report.get("totals").unwrap();
    assert_eq!(totals.get("crashed").unwrap().as_u64(), Some(0));
    assert_eq!(totals.get("degraded").unwrap().as_u64(), Some(2));
    for unit in report.get("units").unwrap().as_arr().unwrap() {
        assert_eq!(unit.get("outcome").unwrap().as_str().unwrap(), "degraded");
    }
}

#[test]
fn injected_budget_degrades_only_its_target() {
    let report = run(
        &corpus(2),
        &PipelineOptions {
            canonical: true,
            faults: FaultPlan::parse("budget@0=8").unwrap(),
            ..PipelineOptions::default()
        },
    )
    .unwrap();
    let units = report.get("units").unwrap().as_arr().unwrap();
    assert_eq!(
        units[0].get("outcome").unwrap().as_str().unwrap(),
        "degraded"
    );
    assert_eq!(units[1].get("outcome").unwrap().as_str().unwrap(), "ok");
    let totals = report.get("totals").unwrap();
    assert_eq!(totals.get("degraded").unwrap().as_u64(), Some(1));
}

// ---- cache self-healing ------------------------------------------------

/// The cache entry files under `dir` (quarantine excluded), name-sorted.
fn cache_entries(dir: &PathBuf) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    entries
}

fn truncate_file(path: &PathBuf) {
    let len = std::fs::metadata(path).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    file.set_len(len / 2).unwrap();
}

fn bitflip_file(path: &PathBuf) {
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .unwrap();
    let mid = std::fs::metadata(path).unwrap().len() / 2;
    let mut byte = [0u8; 1];
    file.seek(SeekFrom::Start(mid)).unwrap();
    file.read_exact(&mut byte).unwrap();
    byte[0] ^= 0x40;
    file.seek(SeekFrom::Start(mid)).unwrap();
    file.write_all(&byte).unwrap();
}

/// Rewrites a cache entry as a *stale-schema* entry, through the public
/// `seal`: the payload claims an old format version inside an envelope that
/// verifies, so it is the schema check that must refuse it, not the checksum.
fn stale_schema_file(path: &PathBuf) {
    let mut payload = unseal(&std::fs::read_to_string(path).unwrap()).unwrap();
    payload.set("schema", 1u32);
    let stale = seal(&payload);
    assert_eq!(unseal(&stale), Some(payload), "envelope verifies");
    std::fs::write(path, stale).unwrap();
}

#[test]
fn cache_self_heals_from_damaged_entries() {
    let dir = scratch_dir("heal");
    let opts = PipelineOptions {
        cache_dir: Some(dir.clone()),
        canonical: true,
        ..PipelineOptions::default()
    };

    let cold = run(&corpus(3), &opts).unwrap().to_pretty();

    // Damage every entry, each in a different way.
    let entries = cache_entries(&dir);
    assert_eq!(entries.len(), 3, "expected one entry per unit");
    truncate_file(&entries[0]);
    bitflip_file(&entries[1]);
    stale_schema_file(&entries[2]);

    // The damaged run recomputes transparently: same report as cold.
    let healed = run(&corpus(3), &opts).unwrap().to_pretty();
    assert_eq!(healed, cold, "self-healed report differs from cold run");

    // The evidence moved into quarantine/ — all three, so the stale-schema
    // entry, whose envelope still verifies there, fell to the schema check.
    assert_eq!(
        std::fs::read_dir(dir.join("quarantine")).unwrap().count(),
        3
    );
    let stale = dir.join("quarantine").join(entries[2].file_name().unwrap());
    assert!(unseal(&std::fs::read_to_string(stale).unwrap()).is_some());

    // ... and the rewritten entries serve hits again.
    let warm = run(&corpus(3), &opts).unwrap();
    let rate = warm
        .get("totals")
        .unwrap()
        .get("hit_rate")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!((rate - 1.0).abs() < 1e-9, "expected full hits, got {rate}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_store_errors_are_retried_and_cost_nothing() {
    let dir = scratch_dir("retry");

    // First run: unit 0's first two store attempts fail with injected IO
    // errors; the bounded retry must land the entry anyway.
    let faulted = run(
        &corpus(2),
        &PipelineOptions {
            cache_dir: Some(dir.clone()),
            faults: FaultPlan::parse("io@0=2").unwrap(),
            ..PipelineOptions::default()
        },
    )
    .unwrap();
    let health = faulted.get("cache_health").unwrap();
    assert_eq!(health.get("io_retries").unwrap().as_u64(), Some(2));
    assert_eq!(health.get("store_errors").unwrap().as_u64(), Some(0));

    // IO faults do not change the key, so a fault-free second run hits
    // every entry — the fault cost nothing.
    let warm = run(
        &corpus(2),
        &PipelineOptions {
            cache_dir: Some(dir.clone()),
            ..PipelineOptions::default()
        },
    )
    .unwrap();
    let totals = warm.get("totals").unwrap();
    assert_eq!(totals.get("cache_misses").unwrap().as_u64(), Some(0));
    assert!(totals.get("cache_hits").unwrap().as_u64().unwrap() > 0);

    let _ = std::fs::remove_dir_all(&dir);
}

// ---- frontend hardening ------------------------------------------------

#[test]
fn malformed_corpus_is_rejected_with_structured_errors() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/malformed");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/malformed exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 10,
        "malformed corpus shrank to {} files",
        files.len()
    );

    for path in files {
        let src = std::fs::read_to_string(&path).unwrap();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        match std::panic::catch_unwind(|| sga::frontend::parse(&src)) {
            Ok(Err(e)) => {
                let msg = e.to_string();
                assert!(!msg.is_empty(), "{name}: empty error message");
            }
            Ok(Ok(_)) => panic!("{name}: malformed input parsed successfully"),
            Err(_) => panic!("{name}: frontend panicked instead of erroring"),
        }
    }
}

// ---- durability: journal, resume, graceful shutdown --------------------

/// Runs `sga analyze` on the 4-unit robustness corpus with extra args.
fn sga_analyze(units: usize, extra: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_sga"))
        .arg("analyze")
        .args(["--corpus", &format!("units={units},kloc=1,seed=11")])
        .args(extra)
        .output()
        .expect("sga binary runs")
}

/// The committed journal records under `dir/journal`, if any.
fn journal_records(dir: &Path) -> usize {
    std::fs::read_dir(dir.join("journal")).map_or(0, |entries| {
        entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .count()
    })
}

/// A run killed by `abort@2` (a hard `std::process::abort`, no unwinding,
/// no flush — an OOM kill as far as the next run can tell) must leave a
/// replayable journal, and `--resume` must reproduce the uninterrupted
/// run's canonical report byte for byte — at any worker count.
#[test]
fn abort_then_resume_reproduces_the_uninterrupted_report() {
    for jobs in [1usize, 4] {
        let jobs_s = jobs.to_string();
        let dir = scratch_dir(&format!("abort-j{jobs}"));
        let dir_s = dir.to_string_lossy().into_owned();

        // jobs=4 claims every unit at once, so the aborting unit stalls
        // first to give its siblings time to commit their records.
        let faults = if jobs == 1 {
            "abort@2".to_string()
        } else {
            // The stall must outlast a sibling's full analyze + octagon
            // triage in a debug build (~2s each); on a loaded single-CPU
            // host the three siblings run serially, so the window must
            // cover their *sum* plus contention headroom.
            "stall@2=15000,abort@2".to_string()
        };
        let killed = sga_analyze(
            4,
            &[
                "--cache-dir",
                &dir_s,
                "--canonical",
                "--jobs",
                &jobs_s,
                "--faults",
                &faults,
            ],
        );
        assert!(
            !killed.status.success(),
            "jobs={jobs}: abort@2 must kill the run"
        );
        assert!(
            journal_records(&dir) >= 1,
            "jobs={jobs}: the killed run committed no journal records"
        );

        let resumed = sga_analyze(
            4,
            &[
                "--cache-dir",
                &dir_s,
                "--canonical",
                "--jobs",
                &jobs_s,
                "--resume",
            ],
        );
        assert_eq!(
            resumed.status.code(),
            Some(0),
            "jobs={jobs}: resume failed: {}",
            String::from_utf8_lossy(&resumed.stderr)
        );

        let fresh_dir = scratch_dir(&format!("abort-fresh-j{jobs}"));
        let fresh = sga_analyze(
            4,
            &[
                "--cache-dir",
                &fresh_dir.to_string_lossy(),
                "--canonical",
                "--jobs",
                &jobs_s,
            ],
        );
        assert_eq!(fresh.status.code(), Some(0));
        assert_eq!(
            String::from_utf8_lossy(&resumed.stdout),
            String::from_utf8_lossy(&fresh.stdout),
            "jobs={jobs}: resumed report differs from the uninterrupted run"
        );

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&fresh_dir);
    }
}

/// A drained run (here via the `stop@1` fault) journals what it finished;
/// the resume replays those records — visible in the report's `journal`
/// block — instead of recomputing, and the canonical fields match an
/// uninterrupted run's.
#[test]
fn resume_serves_journaled_units_without_recompute() {
    let dir = scratch_dir("resume-replay");
    let opts = |faults: &str, resume: bool| PipelineOptions {
        cache_dir: Some(dir.clone()),
        faults: FaultPlan::parse(faults).unwrap(),
        resume,
        ..PipelineOptions::default()
    };

    let stopped = run(&corpus(4), &opts("stop@1", false)).unwrap();
    assert_eq!(stopped.get("interrupted").unwrap().as_bool(), Some(true));
    let totals = stopped.get("totals").unwrap();
    assert_eq!(totals.get("skipped").unwrap().as_u64(), Some(2));
    let outcomes: Vec<&str> = stopped
        .get("units")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|u| u.get("outcome").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(outcomes, ["ok", "ok", "skipped", "skipped"]);
    assert_eq!(
        stopped
            .get("journal")
            .unwrap()
            .get("recorded")
            .unwrap()
            .as_u64(),
        Some(2),
        "the drained run must journal both finished units"
    );

    let resumed = run(&corpus(4), &opts("", true)).unwrap();
    assert_eq!(resumed.get("interrupted").unwrap().as_bool(), Some(false));
    let journal = resumed.get("journal").unwrap();
    assert_eq!(
        journal.get("replayed").unwrap().as_u64(),
        Some(2),
        "resume must serve the two journaled units from their records"
    );
    assert_eq!(journal.get("recorded").unwrap().as_u64(), Some(2));

    // The canonical fields of the resumed report match an uninterrupted
    // run's — including the replayed units' recorded `"cache": "miss"`.
    let fresh_dir = scratch_dir("resume-fresh");
    let fresh = run(
        &corpus(4),
        &PipelineOptions {
            cache_dir: Some(fresh_dir.clone()),
            ..PipelineOptions::default()
        },
    )
    .unwrap();
    for field in ["units", "totals"] {
        assert_eq!(
            resumed.get(field).unwrap().to_pretty(),
            fresh.get(field).unwrap().to_pretty(),
            "resumed `{field}` differ from the uninterrupted run"
        );
    }

    // A completed resume retires the journal.
    assert_eq!(journal_records(&dir), 0);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh_dir);
}

/// SIGTERM mid-batch: in-flight units finish, unclaimed units are skipped,
/// the partial report is well-formed JSON marked `interrupted` with exit
/// code 5 — and a follow-up `--resume` completes the batch.
#[cfg(unix)]
#[test]
fn sigterm_flushes_a_resumable_partial_report() {
    let dir = scratch_dir("sigterm");
    let dir_s = dir.to_string_lossy().into_owned();

    // unit 1 stalls long enough to open a signal window after unit 0's
    // journal record lands.
    let child = std::process::Command::new(env!("CARGO_BIN_EXE_sga"))
        .args([
            "analyze",
            "--corpus",
            "units=4,kloc=1,seed=11",
            "--cache-dir",
            &dir_s,
            "--jobs",
            "1",
            "--faults",
            "stall@1=2500",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("sga binary spawns");

    // Wait for the first committed record, then pull the trigger.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while journal_records(&dir) == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "no journal record appeared before the deadline"
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    let term = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(term.success());

    let out = child.wait_with_output().expect("child exits");
    assert_eq!(
        out.status.code(),
        Some(5),
        "interrupted run must exit 5: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = Json::parse(&String::from_utf8_lossy(&out.stdout))
        .expect("partial report is well-formed JSON");
    assert_eq!(report.get("interrupted").unwrap().as_bool(), Some(true));
    let totals = report.get("totals").unwrap();
    assert!(totals.get("skipped").unwrap().as_u64().unwrap() >= 1);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--resume"),
        "stderr should point at --resume: {stderr:?}"
    );

    // The journal survived the shutdown and the resume completes the batch.
    assert!(journal_records(&dir) >= 1);
    let resumed = sga_analyze(4, &["--cache-dir", &dir_s, "--canonical", "--resume"]);
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "resume after SIGTERM failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let resumed_report = Json::parse(&String::from_utf8_lossy(&resumed.stdout)).unwrap();
    assert_eq!(
        resumed_report
            .get("totals")
            .unwrap()
            .get("skipped")
            .unwrap()
            .as_u64(),
        Some(0)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

// ---- the validation oracle ---------------------------------------------

/// `--validate` on a healthy corpus — including a budget-degraded unit —
/// finds nothing: every unit is independently re-checked and passes.
#[test]
fn validation_passes_on_a_degraded_corpus() {
    let report = run(
        &corpus(3),
        &PipelineOptions {
            canonical: true,
            validate: true,
            faults: FaultPlan::parse("budget@1=30").unwrap(),
            ..PipelineOptions::default()
        },
    )
    .unwrap();
    let totals = report.get("totals").unwrap();
    assert_eq!(totals.get("invalid").unwrap().as_u64(), Some(0));
    assert_eq!(totals.get("validated").unwrap().as_u64(), Some(3));
    assert_eq!(totals.get("degraded").unwrap().as_u64(), Some(1));
    for (i, unit) in report
        .get("units")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .enumerate()
    {
        let v = unit.get("validation").unwrap();
        assert_eq!(
            v.get("violations").unwrap().as_arr().unwrap().len(),
            0,
            "unit {i} has violations"
        );
        // Lemma 1 compares constant propagation, which has no budget, so the
        // degraded unit is checked like the others.
        assert!(
            v.get("lemma1_bindings").unwrap().as_u64().unwrap() > 0,
            "unit {i}: Lemma 1 compared nothing"
        );
        assert!(v.get("interval_points").unwrap().as_u64().unwrap() > 0);
        assert!(v.get("octagon_points").unwrap().as_u64().unwrap() > 0);
    }
}

/// A forged cache entry — wrong content resealed under a *valid* checksum,
/// so the envelope cannot catch it — is exposed by the oracle's
/// recompute-and-compare, reported `invalid` (CLI exit 4), quarantined, and
/// never re-cached; the next run recomputes and recovers.
#[test]
fn forged_cache_entry_is_caught_invalid_and_quarantined() {
    let dir = scratch_dir("forge");
    let dir_s = dir.to_string_lossy().into_owned();

    // Seed the cache, then forge unit 1's entry in place.
    let seeded = sga_analyze(2, &["--cache-dir", &dir_s, "--faults", "forge@1"]);
    assert_eq!(seeded.status.code(), Some(0));

    let caught = sga_analyze(2, &["--cache-dir", &dir_s, "--validate"]);
    assert_eq!(caught.status.code(), Some(4), "forged entry must exit 4");
    let report = Json::parse(&String::from_utf8_lossy(&caught.stdout)).unwrap();
    let units = report.get("units").unwrap().as_arr().unwrap();
    assert_eq!(units[0].get("outcome").unwrap().as_str(), Some("ok"));
    assert_eq!(units[1].get("outcome").unwrap().as_str(), Some("invalid"));
    let violations = units[1]
        .get("validation")
        .unwrap()
        .get("violations")
        .unwrap()
        .as_arr()
        .unwrap();
    assert!(
        violations
            .iter()
            .any(|v| v.as_str().unwrap().starts_with("cache_mismatch:")),
        "missing cache_mismatch violation: {violations:?}"
    );
    let totals = report.get("totals").unwrap();
    assert_eq!(totals.get("invalid").unwrap().as_u64(), Some(1));
    assert_eq!(totals.get("validated").unwrap().as_u64(), Some(1));
    assert!(
        String::from_utf8_lossy(&caught.stderr).contains("failed validation"),
        "stderr missing validation notice"
    );

    // The forged entry moved to quarantine and was not replaced by the
    // invalid result — so the next run recomputes, passes, and re-caches.
    assert_eq!(
        std::fs::read_dir(dir.join("quarantine")).unwrap().count(),
        1
    );
    let healed = sga_analyze(2, &["--cache-dir", &dir_s, "--validate"]);
    assert_eq!(healed.status.code(), Some(0), "recovery run must pass");
    let healed_report = Json::parse(&String::from_utf8_lossy(&healed.stdout)).unwrap();
    assert_eq!(
        healed_report
            .get("totals")
            .unwrap()
            .get("invalid")
            .unwrap()
            .as_u64(),
        Some(0)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// `sga cache gc` prunes quarantine and sweeps stranded temp files.
#[test]
fn cache_gc_subcommand_prunes_and_reports() {
    let dir = scratch_dir("gc-cli");
    let seeded = sga_analyze(2, &["--cache-dir", &dir.to_string_lossy()]);
    assert_eq!(seeded.status.code(), Some(0));
    std::fs::write(dir.join("stranded.json.tmp"), b"torn").unwrap();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sga"))
        .args(["cache", "gc", &dir.to_string_lossy(), "--keep", "0"])
        .output()
        .expect("sga binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "cache gc failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("1 temp file"),
        "unexpected gc output: {stdout}"
    );
    assert!(!dir.join("stranded.json.tmp").exists());

    let _ = std::fs::remove_dir_all(&dir);
}

// ---- CLI exit codes ----------------------------------------------------

#[test]
fn partial_failure_exits_with_code_3() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sga"))
        .args([
            "analyze",
            "--corpus",
            "units=2,kloc=1,seed=11",
            "--no-cache",
            "--canonical",
            "--faults",
            "panic@0",
        ])
        .output()
        .expect("sga binary runs");
    assert_eq!(out.status.code(), Some(3), "partial failure must exit 3");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"crashed\": 1"),
        "report missing crash total"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unit(s) crashed"),
        "stderr missing partial-failure notice: {stderr:?}"
    );
}

fn sga(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_sga"))
        .args(args)
        .output()
        .expect("sga binary runs")
}

/// Deleted flags are gone from every front door that took them — refused as
/// unknown arguments (usage on stderr, exit 2), not silently accepted: the
/// dependency-backend flag (spelled in halves: a grep for it must find
/// nothing in the tree), and the nine spellings nothing needed.
#[test]
fn removed_backend_flag_is_rejected_everywhere() {
    const BACKEND: &str = concat!("--dep", "-backend");
    let doors: [(&[&str], &[&str]); 5] = [
        (&["unit.c"], &[BACKEND]),
        (&["check", "unit.c"], &[BACKEND]),
        (
            &["analyze", "dir"],
            &[
                BACKEND,
                "--keep-going",
                "--quarantine-keep",
                "--journal-dir",
            ],
        ),
        (
            &["serve", "dir"],
            &[
                BACKEND,
                "--queue-cap",
                "--sub-queue-cap",
                "--write-deadline-ms",
                "--sub-sndbuf",
                "--max-line",
                "--journal-dir",
            ],
        ),
        (&["cache", "gc", "dir"], &["--serve-journal-max"]),
    ];
    for (door, flags) in doors {
        for &flag in flags {
            let out = sga(&[door, &[flag, "1"]].concat());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{door:?} {flag}: {stderr}");
            assert!(
                stderr.starts_with(&format!("unexpected argument `{flag}`\nusage: sga")),
                "{door:?} {flag}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{door:?} {flag}");
        }
    }
}

/// Asking for help is not a usage error: the usage goes to stdout and the
/// exit is 0, on every subcommand and under either spelling.
#[test]
fn help_prints_usage_on_stdout_and_exits_0() {
    for door in [
        &[][..],
        &["check"],
        &["analyze"],
        &["serve"],
        &["watch"],
        &["cache", "gc"],
    ] {
        for flag in ["--help", "-h"] {
            let out = sga(&[door, &[flag]].concat());
            assert_eq!(out.status.code(), Some(0), "{door:?} {flag}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                stdout.starts_with("usage: sga"),
                "{door:?} {flag}: {stdout}"
            );
            assert!(out.stderr.is_empty(), "{door:?} {flag}");
        }
    }
}
