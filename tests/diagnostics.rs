//! Golden alarm corpus and diagnostic-subsystem invariants.
//!
//! `tests/alarms/` holds twenty-one small C files, each annotated with the
//! alarms it should raise. Every file has a `.expected` sidecar listing
//! the exact diagnostics (fingerprint, triage status, rendering). The
//! `path_*.c` family exercises the path-condition layer: dead dominating
//! guards, contradictory guard chains, and — just as important — guards
//! that are loop-carried or merely uncertain and must *never* be
//! path-discharged. Three (`octagon_callee_write.c`, `path_callee_write.c`,
//! `null_after_call.c`) fault on every run right after a callee's write,
//! and must stay open alarms. The tests here pin six properties of the
//! triage subsystem:
//!
//! 1. **Engine/widening agreement.** Both fixpoint engines and all three
//!    widening strategies produce byte-identical diagnostics — sparse
//!    evaluation and widening tactics change cost, never findings.
//! 2. **Golden stability.** The corpus diagnostics match the checked-in
//!    sidecars, so fingerprints and renderings cannot drift silently.
//!    Regenerate with `SGA_BLESS=1 cargo test -q --test diagnostics`.
//! 3. **Pipeline determinism.** Canonical batch reports over the corpus
//!    are byte-identical across `--jobs 1/2/8` and warm/cold cache.
//! 4. **Output formats.** The SARIF export validates against the
//!    vendored 2.1.0 schema, and a report diffed against itself as a
//!    baseline classifies everything `unchanged`.
//! 5. **Stability against history.** The canonical reports of a generated
//!    corpus, of `tests/alarms/` and of one recursion-heavy generated unit
//!    (with its interval solve's iteration counts) hash to digests recorded
//!    at earlier commits, so a refactor meant to change no result cannot
//!    change one.
//! 6. **No discharged fault.** Where the interpreter reaches a fault, the
//!    alarm at its line is open under both engines.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use sga::analysis::budget::Budget;
use sga::analysis::depgen::DepGenOptions;
use sga::analysis::interval::{self, AnalyzeOptions, Engine};
use sga::analysis::triage::{self, TriageMode, TriageOptions};
use sga::analysis::widening::{WideningConfig, WideningStrategy};
use sga::analysis::{checker, preanalysis, sparse};
use sga::diag::{sarif, schema, DiagKind, Diagnostic, DischargeMethod, Status};
use sga::domains::{AbsLoc, Lattice};
use sga::ir::interp::{self, InterpConfig, Outcome};
use sga::pipeline::{self, PipelineOptions, Project};
use sga::utils::Json;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/alarms")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/alarms must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "c"))
        .collect();
    files.sort();
    assert_eq!(
        files.len(),
        21,
        "golden corpus should hold twenty-one C files"
    );
    files
}

fn diagnose(src: &str, engine: Engine, widening: WideningConfig) -> Vec<Diagnostic> {
    diagnose_with(src, engine, widening, TriageMode::default())
}

fn diagnose_with(
    src: &str,
    engine: Engine,
    widening: WideningConfig,
    mode: TriageMode,
) -> Vec<Diagnostic> {
    let program = sga::frontend::parse(src).expect("corpus file must parse");
    let pre = preanalysis::run(&program);
    let result = interval::analyze_with(
        &program,
        engine,
        AnalyzeOptions {
            widening,
            ..Default::default()
        },
    );
    let mut diags = checker::check_all(&program, &result, &pre);
    triage::discharge(
        &program,
        &pre,
        &result,
        &mut diags,
        &TriageOptions {
            engine,
            widening,
            budget: triage::derived_budget(result.stats.iterations, &Budget::unbounded()),
            mode,
            ..Default::default()
        },
    );
    diags
}

/// One line per diagnostic: fingerprint, triage status, rendering.
fn render(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        let status = match &d.status {
            Status::Open => "open".to_string(),
            Status::Discharged { method, pack, .. } => {
                format!("discharged[{}:{pack}]", method.id())
            }
        };
        writeln!(out, "{:016x} {status} {d}", d.fingerprint).unwrap();
    }
    out
}

#[test]
fn golden_corpus_agrees_across_engines_and_widenings() {
    let bless = std::env::var_os("SGA_BLESS").is_some();
    for file in corpus_files() {
        let src = std::fs::read_to_string(&file).unwrap();
        let reference = render(&diagnose(&src, Engine::Sparse, WideningConfig::default()));

        let sidecar = file.with_extension("expected");
        if bless {
            std::fs::write(&sidecar, &reference).unwrap();
        }
        let expected = std::fs::read_to_string(&sidecar).unwrap_or_else(|_| {
            panic!(
                "missing golden sidecar {}; regenerate with SGA_BLESS=1",
                sidecar.display()
            )
        });
        assert_eq!(
            reference,
            expected,
            "{} diverged from its golden sidecar",
            file.display()
        );

        for engine in [Engine::Base, Engine::Sparse] {
            for strategy in ["naive", "threshold", "delayed"] {
                let widening = WideningConfig::of(WideningStrategy::parse(strategy).unwrap());
                let got = render(&diagnose(&src, engine, widening));
                assert_eq!(
                    got,
                    reference,
                    "{}: {engine:?}/{strategy} disagrees with Sparse/default",
                    file.display()
                );
            }
        }
    }
}

#[test]
fn triage_discharges_possible_alarms_and_keeps_definite_ones() {
    let mut discharged_files = Vec::new();
    for file in corpus_files() {
        let name = file.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&file).unwrap();
        let diags = diagnose(&src, Engine::Sparse, WideningConfig::default());

        for d in &diags {
            if d.definite {
                assert!(
                    d.is_open(),
                    "{name}: definite alarm must never be discharged: {d}"
                );
            }
        }
        if diags.iter().any(|d| !d.is_open()) {
            discharged_files.push(name.clone());
        }
        match name.as_str() {
            "clean.c" => assert!(diags.is_empty(), "clean.c must raise no alarms"),
            "overrun_const.c" | "null_definite.c" | "div_zero.c" | "uninit.c" => {
                assert!(
                    diags.iter().any(|d| d.definite && d.is_open()),
                    "{name}: expected a surviving definite alarm"
                );
            }
            "overrun_loop.c" | "div_guarded.c" => {
                assert!(
                    diags.iter().all(|d| !d.is_open()),
                    "{name}: every alarm should be octagon-discharged"
                );
                assert!(!diags.is_empty(), "{name}: expected at least one alarm");
            }
            _ => {}
        }
    }
    assert!(
        discharged_files.len() >= 3,
        "expected octagon discharges in at least three corpus files, got {discharged_files:?}"
    );
}

/// The `path_*.c` family, checked by name: the dead-guard and
/// contradictory-chain cases are discharged by the path layer (with a
/// proving pack naming the guard chain), while the loop-carried and
/// feasible-guard cases must never be — and octagon-only mode leaves
/// every path-only discharge open, so `both` is a strict superset.
#[test]
fn path_corpus_cases_discharge_by_name() {
    let path_discharged = [
        "path_dead_guard.c",
        "path_contra_null.c",
        "path_else_dead.c",
        "path_overrun_dead.c",
        "path_div_dead.c",
        "path_chain.c",
    ];
    let never_path_discharged = [
        "path_loop_carried.c",
        "path_feasible_guard.c",
        "path_callee_write.c",
    ];

    for name in path_discharged {
        let src = std::fs::read_to_string(corpus_dir().join(name)).unwrap();
        let diags = diagnose(&src, Engine::Sparse, WideningConfig::default());
        assert_eq!(diags.len(), 1, "{name}: expected exactly one alarm");
        let Status::Discharged {
            method,
            pack,
            reason,
        } = &diags[0].status
        else {
            panic!("{name}: alarm should be path-discharged: {}", diags[0]);
        };
        assert_eq!(
            *method,
            DischargeMethod::PathInfeasible,
            "{name}: wrong discharge method"
        );
        assert!(
            pack.contains('@') && pack.contains('('),
            "{name}: proving pack must name the guard chain, got {pack:?}"
        );
        assert!(
            reason.contains("never holds") || reason.contains("conflict"),
            "{name}: reason must state the infeasibility, got {reason:?}"
        );

        // Octagon-only mode cannot reach these: the alarm stays open.
        let octagon = diagnose_with(
            &src,
            Engine::Sparse,
            WideningConfig::default(),
            TriageMode::Octagon,
        );
        assert!(
            octagon.iter().all(Diagnostic::is_open),
            "{name}: octagon-only mode should leave the alarm open"
        );
    }

    // Polarity spot checks: the else-branch cases carry `else@` in the
    // pack, the then-branch cases `then@`.
    for (name, label) in [
        ("path_dead_guard.c", "then@"),
        ("path_else_dead.c", "else@"),
        ("path_chain.c", "else@"),
    ] {
        let src = std::fs::read_to_string(corpus_dir().join(name)).unwrap();
        let diags = diagnose(&src, Engine::Sparse, WideningConfig::default());
        let Status::Discharged { pack, .. } = &diags[0].status else {
            panic!("{name}: expected a discharge");
        };
        assert!(pack.contains(label), "{name}: pack {pack:?} lacks {label}");
    }

    for name in never_path_discharged {
        let src = std::fs::read_to_string(corpus_dir().join(name)).unwrap();
        // In path-only mode nothing may be discharged at all.
        let path_only = diagnose_with(
            &src,
            Engine::Sparse,
            WideningConfig::default(),
            TriageMode::Path,
        );
        assert!(!path_only.is_empty(), "{name}: expected an alarm");
        assert!(
            path_only.iter().all(Diagnostic::is_open),
            "{name}: the path layer must not discharge a feasible guard"
        );
        // And in both mode any discharge must come from the octagon.
        let both = diagnose(&src, Engine::Sparse, WideningConfig::default());
        for d in &both {
            if let Status::Discharged { method, .. } = &d.status {
                assert_eq!(
                    *method,
                    DischargeMethod::Octagon,
                    "{name}: unexpected path discharge: {d}"
                );
            }
        }
    }
}

/// The three files whose every run faults right after a callee's write:
/// the interpreter reaches the fault from `main(0)`, and the alarm at its
/// line stays open under Base and Sparse — no discharged alarm is a
/// concrete fault.
#[test]
fn concrete_faults_after_a_callee_write_stay_open_alarms() {
    for (name, line) in [
        ("octagon_callee_write.c", 14),
        ("path_callee_write.c", 14),
        ("null_after_call.c", 12),
    ] {
        let src = std::fs::read_to_string(corpus_dir().join(name)).unwrap();
        let program = sga::frontend::parse(&src).expect("corpus file must parse");
        let run = interp::run(
            &program,
            &InterpConfig {
                main_args: vec![0],
                ..InterpConfig::default()
            },
        );
        assert!(
            matches!(
                run.outcome,
                Outcome::UndefinedBehaviour(_) | Outcome::Trap(_)
            ),
            "{name}: main(0) must fault, got {:?}",
            run.outcome
        );
        for engine in [Engine::Base, Engine::Sparse] {
            let diags = diagnose(&src, engine, WideningConfig::default());
            assert!(
                diags.iter().any(|d| d.line == line && d.is_open()),
                "{name}: {engine:?} must leave the alarm at line {line} open: {}",
                render(&diags)
            );
        }
    }
}

#[test]
fn repeated_subjects_get_distinct_fingerprints() {
    let src = std::fs::read_to_string(corpus_dir().join("repeat_subject.c")).unwrap();
    let diags = diagnose(&src, Engine::Sparse, WideningConfig::default());
    assert!(diags.len() >= 2, "expected two null-deref alarms");
    let mut fps: Vec<u64> = diags.iter().map(|d| d.fingerprint).collect();
    fps.sort_unstable();
    fps.dedup();
    assert_eq!(fps.len(), diags.len(), "fingerprints must be distinct");
}

fn corpus_report(jobs: usize, cache_dir: Option<PathBuf>) -> Json {
    let options = PipelineOptions {
        jobs,
        canonical: true,
        cache_dir,
        ..Default::default()
    };
    pipeline::run(&Project::Dir(corpus_dir()), &options).expect("pipeline run")
}

/// The analysis content of a report: per-unit name, value fingerprint,
/// and rendered diagnostics. Cache-status fields (`"off"`/`"miss"`/
/// `"hit"`) legitimately differ across cache states, so cached and
/// uncached runs are compared on this projection.
fn analysis_content(report: &Json) -> String {
    let mut out = String::new();
    for unit in report.get("units").unwrap().as_arr().unwrap() {
        writeln!(
            out,
            "{} {} {}",
            unit.get("name").unwrap().to_pretty(),
            unit.get("fingerprint").unwrap().to_pretty(),
            unit.get("diagnostics").unwrap().to_pretty(),
        )
        .unwrap();
    }
    out
}

#[test]
fn corpus_report_is_byte_identical_across_jobs_and_cache_state() {
    let reference = corpus_report(1, None);
    for jobs in [2, 8] {
        assert_eq!(
            corpus_report(jobs, None).to_pretty(),
            reference.to_pretty(),
            "--jobs {jobs} changed the canonical report"
        );
    }

    let tmp = tempdir("diag-cache");
    let cold = corpus_report(4, Some(tmp.clone()));
    let warm = corpus_report(4, Some(tmp.clone()));
    assert_eq!(
        analysis_content(&cold),
        analysis_content(&reference),
        "cold cached run changed the diagnostics"
    );
    assert_eq!(
        analysis_content(&warm),
        analysis_content(&reference),
        "warm cached run changed the diagnostics"
    );
    let hits = warm
        .get("totals")
        .and_then(|t| t.get("cache_hits"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(hits > 0, "warm run should be served from cache");
    std::fs::remove_dir_all(&tmp).ok();
}

/// Canonical reports pinned against *history*, not only against another
/// mode or `--jobs` value, so a refactor that is meant to change no result
/// cannot change one silently. A change to analysis results or the report
/// schema made on purpose updates the constants and says so. They were last
/// moved when the checkers began reading the engine's own inputs: the
/// generated corpus went from 27 open + 10 discharged alarms to 0 + 8, the
/// recursive unit from 6 + 2 to 0 + 2 (every dropped alarm read a value no
/// input carries), and `tests/alarms` gained three files.
#[test]
fn canonical_reports_match_the_pinned_digests() {
    let pins = [
        (
            "--corpus units=4,kloc=1,seed=65261",
            Project::Corpus {
                units: 4,
                kloc: 1,
                seed: 65261,
            },
            0xf1e3_b6a2_d6f5_120e,
        ),
        (
            "tests/alarms",
            Project::Dir(corpus_dir()),
            0x7508_719f_c5e0_ce02,
        ),
    ];
    let options = PipelineOptions {
        canonical: true,
        triage: TriageMode::Both,
        ..Default::default()
    };
    for (what, project, pinned) in pins {
        let report = pipeline::run(&project, &options).expect("pipeline run");
        let digest = sga::utils::fxhash::hash_one(&report.to_pretty());
        assert_eq!(
            digest, pinned,
            "canonical report of {what} under --triage both drifted: digest {digest:#018x}"
        );
    }

    // The corpora above are flat (`max_scc = 2`) or tiny. This unit puts 28
    // of its 32 procedures on one call-graph cycle, so its fixpoint runs
    // through a large dependency cycle where pop order and the widening
    // delay decide the result; pinned together with the interval solve's
    // two trajectory counts, which no checker change may move.
    let source = scc_unit();
    let dir = tempdir("diag-scc-pin");
    std::fs::write(dir.join("scc.c"), &source).unwrap();
    let program = sga::frontend::parse(&source).expect("generated unit must parse");
    let staged = interval::Pipeline::prepare(&program, AnalyzeOptions::default());
    let report = pipeline::run(&Project::Dir(dir.clone()), &options).expect("pipeline run");
    let digest = sga::utils::fxhash::hash_one(&report.to_pretty());
    assert_eq!(
        digest, 0x360d_a9b0_277a_9455,
        "canonical report of the recursive unit drifted: digest {digest:#018x}"
    );
    let solved = sparse::solve(
        &program,
        &staged.icfg,
        &staged.deps,
        &staged.spec(),
        &staged.widening,
        &Budget::unbounded(),
    );
    assert_eq!(
        (solved.iterations, solved.narrowing_rounds),
        (5712, 1554),
        "interval trajectory of the recursive unit drifted"
    );
    // Without the bypass, raw edges reach the relation in emission order,
    // not in the contraction's point order, so this trajectory pins a
    // second order of the same inputs.
    let no_bypass = AnalyzeOptions {
        depgen: DepGenOptions { bypass: false },
        ..AnalyzeOptions::default()
    };
    let off = interval::Pipeline::prepare(&program, no_bypass);
    let solved = sparse::solve(
        &program,
        &off.icfg,
        &off.deps,
        &off.spec(),
        &off.widening,
        &Budget::unbounded(),
    );
    assert_eq!(
        (solved.iterations, solved.narrowing_rounds),
        (5959, 1554),
        "bypass-off interval trajectory of the recursive unit drifted"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The 800-line unit with 28 of its 32 procedures on one call-graph cycle.
fn scc_unit() -> String {
    sga::cgen::generate(&sga::cgen::GenConfig {
        seed: 65261,
        target_loc: 800,
        functions: 32,
        globals: 16,
        global_ptrs: 4,
        max_scc: 28,
        ..Default::default()
    })
}

/// Beyond the golden corpus, on a flat generated unit and the SCC-heavy
/// one: no alarm sits in code the analysis proves unreachable — every
/// value-reading alarm reads a non-⊥ value in the dense engine's input at
/// its point — and Base and Sparse raise byte-identical diagnostics.
#[test]
fn generated_units_alarm_only_where_a_value_reaches_and_engines_agree() {
    let flat = sga::cgen::generate(&sga::cgen::GenConfig {
        seed: 3,
        target_loc: 300,
        max_scc: 2,
        ..Default::default()
    });
    for (what, source) in [("flat", flat), ("scc", scc_unit())] {
        let sparse = diagnose(&source, Engine::Sparse, WideningConfig::default());
        let base = diagnose(&source, Engine::Base, WideningConfig::default());
        assert_eq!(render(&base), render(&sparse), "{what}: engines disagree");

        let program = sga::frontend::parse(&source).expect("generated unit must parse");
        let pre = preanalysis::run(&program);
        let result = interval::analyze(&program, Engine::Base);
        let (icfg, du, deps) = interval::stage_inputs(&program, &pre, Engine::Base);
        let q = interval::Inputs::new(&program, &result, &icfg, &du, deps.as_ref());
        let reads_a_value = |d: &&Diagnostic| {
            matches!(
                d.kind,
                DiagKind::BufferOverrun | DiagKind::NullDeref | DiagKind::DivByZero
            )
        };
        for d in sparse.iter().filter(reads_a_value) {
            let Some(x) = d.var else { continue };
            assert!(
                !q.value(d.cp, &AbsLoc::Var(x)).is_bottom(),
                "{what}: no value reaches the read of the alarm {d}"
            );
        }
    }
}

#[test]
fn sarif_export_validates_against_vendored_schema() {
    let src = std::fs::read_to_string(corpus_dir().join("mixed.c")).unwrap();
    let diags = diagnose(&src, Engine::Sparse, WideningConfig::default());
    assert!(!diags.is_empty());

    let log = sarif::to_sarif("tests/alarms/mixed.c", &diags);
    let violations = schema::validate(&log, &schema::vendored_sarif_schema());
    assert!(
        violations.is_empty(),
        "SARIF log violates the vendored 2.1.0 schema: {violations:?}"
    );

    let results = log.get("runs").unwrap().as_arr().unwrap()[0]
        .get("results")
        .unwrap()
        .as_arr()
        .unwrap();
    assert_eq!(results.len(), diags.len());
    for r in results {
        assert!(
            r.get("partialFingerprints")
                .and_then(|f| f.get("sga/v1"))
                .is_some(),
            "every result must carry the sga/v1 partial fingerprint"
        );
    }
}

#[test]
fn baseline_against_self_reports_everything_unchanged() {
    let tmp = tempdir("diag-baseline");
    let baseline_path = tmp.join("baseline.json");
    let first = corpus_report(2, None);
    std::fs::write(&baseline_path, first.to_pretty()).unwrap();

    let options = PipelineOptions {
        jobs: 2,
        canonical: true,
        baseline: Some(baseline_path),
        ..Default::default()
    };
    let report = pipeline::run(&Project::Dir(corpus_dir()), &options).expect("pipeline run");
    let block = report.get("baseline").expect("baseline block");
    assert_eq!(block.get("new").unwrap().as_arr().unwrap().len(), 0);
    assert_eq!(block.get("fixed").unwrap().as_arr().unwrap().len(), 0);
    assert_eq!(block.get("new_definite").and_then(Json::as_u64), Some(0));
    let open = first
        .get("totals")
        .unwrap()
        .get("alarms")
        .and_then(Json::as_u64);
    assert_eq!(block.get("unchanged").and_then(Json::as_u64), open);
    std::fs::remove_dir_all(&tmp).ok();
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sga-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
