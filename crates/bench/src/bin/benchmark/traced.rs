//! The traced run: the per-layer ledger, from spans the harness opens
//! around calls into each layer's public functions.
//!
//! Traced runs do a fixed amount of work (a fixed number of passes and
//! edits) rather than a fixed time, so every count in the ledger repeats
//! exactly between two runs of the same code; the work is sized to take
//! about as long as an untraced run. The counting allocator is on only
//! while a traced batch or warm pass runs.
//!
//! For the batch workloads the harness stages each unit itself — lex,
//! parse, lower, pre-analysis, ICFG, def/use, dependency generation, CSR
//! lowering, sparse solve, checkers, octagon triage, path triage, rendering
//! — beside one `pipeline::run` span over the same input, and checks that
//! the staged numbers equal the report's, so the ledger provably measures
//! the computation the end-to-end metrics time.

use crate::alloc;
use crate::check::{self, units_of, Check};
use crate::measure::{self, ms_since, ServeSession, WORK_ROOT};
use crate::report::Ledger;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{self, EditKind, EditScript, Layout, Workload, SERVE_UNITS};
use sga::analysis::depstore::CsrDeps;
use sga::analysis::icfg::Icfg;
use sga::analysis::interval::{
    AnalyzeOptions, Engine as FixEngine, IntervalResult, IntervalSparseSpec,
};
use sga::analysis::stats::AnalysisStats;
use sga::analysis::triage::{self, TriageMode, TriageOptions};
use sga::analysis::widening::WideningPlan;
use sga::analysis::{checker, defuse, depgen, octagon, preanalysis, sparse, validate};
use sga::diag::{sarif, Diagnostic};
use sga::domains::State;
use sga::frontend::{lexer, lower, parser};
use sga::ir::Cp;
use sga::pipeline::journal::JournalRecord;
use sga::pipeline::{
    self, cache::LoadOutcome, Cache, IsolationMode, Journal, PipelineOptions, Project,
};
use sga::serve::{Engine, RoundJournal};
use sga::utils::{FxHashMap, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Traced passes per workload; the first also runs the validation oracle.
const BATCH_PASSES: usize = 2;
const WARM_PASSES: usize = 10;
/// Edits replayed in process (twice, on fresh engines) and over the socket.
const TRACE_EDITS: usize = 20;
/// `RoundJournal::record` calls timed for `serve.journal.record_ms`.
const ROUND_RECORDS: usize = 8;

/// Layers whose self times should add up to the `pipeline::run` span.
const BATCH_STAGES: [&str; 13] = [
    "cfront.lex",
    "cfront.parse",
    "cfront.lower",
    "core.preanalysis",
    "core.icfg",
    "core.defuse",
    "core.depgen",
    "core.depstore.csr_build",
    "core.sparse.solve",
    "core.checker",
    "core.triage.octagon",
    "core.triage.path",
    "diag.render_json",
];
const WARM_STAGES: [&str; 5] = [
    "pipeline.key",
    "pipeline.cache.load",
    "pipeline.journal.record",
    "pipeline.assemble_report",
    "diag.render_json",
];

/// Exact counts of one traced pass, compared between passes.
pub type Counts = BTreeMap<&'static str, f64>;

fn add(counts: &mut Counts, name: &'static str, by: f64) {
    *counts.entry(name).or_insert(0.0) += by;
}

/// What a traced run produced.
pub struct Traced {
    pub ledger: Ledger,
    pub check: Check,
}

/// Runs the traced version of `w` and writes its spans to `trace_out`.
pub fn run(w: Workload, seed: u64, trace_out: &Path) -> Result<Traced, String> {
    let root = PathBuf::from(WORK_ROOT).join(format!("{}-{}-traced", w.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut tracer = Tracer::new();
    let result = match w {
        Workload::BatchFlat | Workload::BatchScc => batch(w, seed, &root, &mut tracer),
        Workload::WarmRerun => warm(seed, &root, &mut tracer),
        Workload::ServeEdits => serve(seed, &root, &mut tracer),
    };
    alloc::set_enabled(false);
    let _ = std::fs::remove_dir_all(&root);
    tracer
        .write_jsonl(trace_out)
        .map_err(|e| format!("cannot write {}: {e}", trace_out.display()))?;
    println!("{} spans written to {}", tracer.len(), trace_out.display());
    result
}

/// The determinism self-check: what a traced pass's exact counts miss of
/// the first pass's.
fn count_misses(first: &Counts, pass: usize, counts: &Counts) -> Vec<String> {
    if counts == first {
        return Vec::new();
    }
    let differing: Vec<String> = first
        .iter()
        .filter(|(k, v)| counts.get(*k) != Some(v))
        .map(|(k, v)| format!("{k}: {v} vs {:?}", counts.get(k)))
        .collect();
    vec![format!(
        "counts differ between traced pass 0 and {pass}: {differing:?}"
    )]
}

/// For every span name, `<span>_ms` = median over passes of the per-pass
/// sum of self times.
fn set_ms<'a>(
    ledger: &mut Ledger,
    tracer: &Tracer,
    passes: usize,
    spans: impl IntoIterator<Item = &'a str>,
) {
    let totals: Vec<_> = (0..passes).map(|p| tracer.totals(p)).collect();
    for span in spans {
        let per_pass: Vec<f64> = totals
            .iter()
            .map(|t| t.get(span).map_or(0.0, |a| a.ms()))
            .collect();
        ledger.set(&format!("{span}_ms"), median(&per_pass), passes);
    }
}

fn pass_sum_ms(tracer: &Tracer, pass: usize, spans: &[&str]) -> f64 {
    let totals = tracer.totals(pass);
    spans
        .iter()
        .map(|s| totals.get(s).map_or(0.0, |a| a.ms()))
        .sum()
}

/// One untraced `pipeline::run` pass, timed: taken right before each
/// traced pass, these are the base of `trace.overhead_share`.
fn untraced_pass_ms(project: &Project, options: &PipelineOptions) -> Result<f64, String> {
    let t = Instant::now();
    pipeline::run(project, options).map_err(|e| e.to_string())?;
    Ok(ms_since(t))
}

// ---- batch_flat / batch_scc ----------------------------------------------

/// Stages one unit layer by layer and checks the staged numbers against
/// the same unit of the `pipeline::run` report.
#[allow(clippy::too_many_arguments)]
fn stage_unit(
    t: &mut Tracer,
    i: usize,
    name: &str,
    source: &str,
    options: &PipelineOptions,
    reference: &Json,
    with_oracle: bool,
    counts: &mut Counts,
    check: &mut Check,
) -> Result<(), String> {
    let u = Some(i);
    let tokens = t
        .span("cfront.lex", u, |_| lexer::lex(source))
        .map_err(|e| e.to_string())?;
    let ast = t
        .span("cfront.parse", u, |_| parser::parse_unit(&tokens))
        .map_err(|e| e.to_string())?;
    let program = t
        .span("cfront.lower", u, |_| lower::lower(&ast))
        .map_err(|e| e.to_string())?;
    add(counts, "cfront.tokens", tokens.len() as f64);
    add(
        counts,
        "cfront.ir_points",
        program.all_points().count() as f64,
    );

    let pre = t.span("core.preanalysis", u, |_| preanalysis::run(&program));
    let icfg = t.span("core.icfg", u, |_| Icfg::build(&program, &pre));
    let du = t.span("core.defuse", u, |_| defuse::compute(&program, &pre));
    let deps = t.span("core.depgen", u, |_| {
        depgen::generate(&program, &pre, &du, options.depgen)
    });
    let csr = t.span("core.depstore.csr_build", u, |_| {
        CsrDeps::build(&program, &icfg, &deps)
    });
    let plan = WideningPlan::for_program(&program, options.widening);
    let spec = IntervalSparseSpec {
        program: &program,
        pre: &pre,
        du: &du,
    };
    let (solved, values) = t.span("core.sparse.solve", u, |_| {
        let solved = sparse::solve_with(&program, &icfg, &csr, &spec, &plan, &options.budget);
        let values: FxHashMap<Cp, State> = solved
            .values
            .iter()
            .map(|(cp, m)| (*cp, State::from_pmap(m.clone())))
            .collect();
        (solved, values)
    });
    let result = IntervalResult {
        engine: FixEngine::Sparse,
        values,
        stats: AnalysisStats {
            iterations: solved.iterations,
            num_locs: du.locs.len(),
            degraded: solved.degraded,
            ..AnalysisStats::default()
        },
    };
    let mut diags = t.span("core.checker", u, |_| {
        checker::check_all(&program, &result, &pre)
    });
    let alarms = diags.len();

    // Octagon, then path on the survivors: equal to `Both` by
    // construction, but each layer gets its own span.
    let analyze_options = AnalyzeOptions {
        depgen: options.depgen,
        dep_backend: options.dep_backend,
        semi_sparse: false,
        widening: options.widening,
        budget: triage::derived_budget(solved.iterations, &options.budget),
    };
    let triage_options = |mode: TriageMode| TriageOptions {
        engine: FixEngine::Sparse,
        depgen: options.depgen,
        dep_backend: options.dep_backend,
        widening: options.widening,
        budget: analyze_options.budget,
        mode,
    };
    let by_octagon = t.span("core.triage.octagon", u, |_| {
        triage::discharge(
            &program,
            &pre,
            &result,
            &mut diags,
            &triage_options(TriageMode::Octagon),
        )
    });
    let by_path = t.span("core.triage.path", u, |_| {
        triage::discharge(
            &program,
            &pre,
            &result,
            &mut diags,
            &triage_options(TriageMode::Path),
        )
    });
    let rendered: Vec<Json> = t.span("diag.render_json", u, |_| {
        diags.iter().map(Diagnostic::to_json).collect()
    });
    t.span("diag.sarif", u, |_| {
        std::hint::black_box(sarif::to_sarif(name, &diags))
    });

    add(counts, "core.defuse.locs", du.locs.len() as f64);
    add(counts, "core.defuse.def_size_sum", du.avg_def_size());
    add(counts, "core.defuse.use_size_sum", du.avg_use_size());
    add(counts, "core.depgen.edges_raw", deps.stats.raw_edges as f64);
    add(
        counts,
        "core.depgen.edges_final",
        deps.stats.final_edges as f64,
    );
    add(counts, "core.sparse.iterations", solved.iterations as f64);
    add(
        counts,
        "core.sparse.narrowing_rounds",
        solved.narrowing_rounds as f64,
    );
    add(counts, "core.checker.alarms", alarms as f64);
    add(
        counts,
        "core.triage.candidates",
        by_octagon.candidates as f64,
    );
    add(
        counts,
        "core.triage.discharged_octagon",
        by_octagon.discharged as f64,
    );
    add(
        counts,
        "core.triage.discharged_path",
        by_path.discharged_path as f64,
    );
    add(counts, "diag.diagnostics", rendered.len() as f64);

    // The ledger measures the same computation as the report: one
    // operation per staged unit.
    let mut misses = Vec::new();
    let field = |k: &str| reference.get(k).and_then(Json::as_u64).map(|v| v as usize);
    let staged = [
        ("iterations", solved.iterations),
        ("locs", du.locs.len()),
        ("dep_edges_raw", deps.stats.raw_edges),
        ("dep_edges", deps.stats.final_edges),
    ];
    for (key, value) in staged {
        if field(key) != Some(value) {
            misses.push(format!(
                "{name}: staged {key} {value}, report {:?}",
                field(key)
            ));
        }
    }
    let reported = reference.get("diagnostics").map(Json::to_compact);
    if reported != Some(Json::from(rendered).to_compact()) {
        misses.push(format!(
            "{name}: staged diagnostics differ from the report's"
        ));
    }
    check.op(misses);

    // Outside the staged chain: a stand-alone octagon run for its own
    // counters (triage keeps its octagon result to itself), and the oracle.
    let oct = t.span("core.octagon", u, |_| {
        octagon::analyze_with(&program, FixEngine::Sparse, analyze_options)
    });
    add(counts, "core.octagon.packs", oct.packs.len() as f64);
    add(
        counts,
        "core.octagon.iterations",
        oct.stats.iterations as f64,
    );
    if with_oracle {
        let verdict = t.span("core.validate", u, |_| {
            validate::validate_unit(
                &program,
                &validate::ValidationInputs {
                    pre: &pre,
                    du: &du,
                    deps: &deps,
                    sparse_values: &solved.values,
                    degraded: solved.degraded,
                },
                AnalyzeOptions {
                    budget: options.budget,
                    ..analyze_options
                },
            )
        });
        check.op(if verdict.is_valid() {
            Vec::new()
        } else {
            let first = verdict.violations().next().map(|v| v.render());
            vec![format!("{name}: oracle violation {first:?}")]
        });
    }
    Ok(())
}

/// One traced batch pass: a `pipeline.run` span over the whole project,
/// then every unit staged against that very report. Returns the pass's
/// exact counts and the report.
pub fn batch_pass(
    t: &mut Tracer,
    pass: usize,
    sources: &[(String, String)],
    project: &Project,
    options: &PipelineOptions,
    with_oracle: bool,
    check: &mut Check,
) -> Result<(Counts, Json), String> {
    t.set_pass(pass);
    let mut counts = Counts::new();
    alloc::set_enabled(true);
    let outcome = t.span("pass", None, |t| -> Result<Json, String> {
        let report = t
            .span("pipeline.run", None, |_| pipeline::run(project, options))
            .map_err(|e| e.to_string())?;
        for (i, ((name, source), unit)) in sources.iter().zip(units_of(&report)).enumerate() {
            t.span("unit", Some(i), |t| {
                stage_unit(
                    t,
                    i,
                    name,
                    source,
                    options,
                    unit,
                    with_oracle,
                    &mut counts,
                    check,
                )
            })?;
        }
        Ok(report)
    });
    alloc::set_enabled(false);
    let report = outcome?;
    let totals = t.totals(pass);
    for (span, allocs, bytes) in [
        ("core.preanalysis", "core.preanalysis.allocs", None),
        (
            "core.sparse.solve",
            "core.sparse.allocs",
            Some("core.sparse.alloc_bytes"),
        ),
        (
            "core.octagon",
            "core.octagon.allocs",
            Some("core.octagon.alloc_bytes"),
        ),
    ] {
        let a = totals.get(span).copied().unwrap_or_default();
        counts.insert(allocs, a.allocs as f64);
        if let Some(bytes) = bytes {
            counts.insert(bytes, a.bytes as f64);
        }
    }
    Ok((counts, report))
}

fn batch(w: Workload, seed: u64, root: &Path, tracer: &mut Tracer) -> Result<Traced, String> {
    measure::prepare(w, seed, root)?;
    let layout = Layout::in_dir(root);
    let options = workloads::options(None);
    let project = Project::Dir(layout.corpus);
    let sources = w.sources(seed);
    let lines: usize = sources.iter().map(|(_, s)| s.lines().count()).sum();
    let mut check = Check::default();

    let reference = pipeline::run(&project, &options);
    check::units_pass(
        &mut check,
        "reference",
        &reference,
        sources.len(),
        |_, _| Vec::new(),
    );
    let reference_text = reference.map_err(|e| e.to_string())?.to_compact();

    let mut passes: Vec<Counts> = Vec::new();
    let mut untraced = Vec::new();
    for pass in 0..BATCH_PASSES {
        untraced.push(untraced_pass_ms(&project, &options)?);
        let (counts, report) = batch_pass(
            tracer,
            pass,
            &sources,
            &project,
            &options,
            pass == 0,
            &mut check,
        )?;
        passes.push(counts);
        let mut misses = count_misses(&passes[0], pass, &passes[pass]);
        if report.to_compact() != reference_text {
            misses.push(format!("traced pass {pass}: report differs"));
        }
        check.op(misses);
    }

    let mut ledger = Ledger::default();
    let measured = BATCH_STAGES
        .into_iter()
        .chain(["diag.sarif", "pipeline.run"]);
    set_ms(&mut ledger, tracer, BATCH_PASSES, measured);
    // The oracle ran in pass 0 only.
    let oracle_ms = tracer
        .totals(0)
        .get("core.validate")
        .map_or(0.0, |a| a.ms());
    ledger.set("core.validate_ms", oracle_ms, 1);

    let c = &passes[0];
    let units = sources.len() as f64;
    for (name, value) in c {
        match *name {
            "core.defuse.def_size_sum" => {
                ledger.set("core.defuse.avg_defs", value / units, sources.len())
            }
            "core.defuse.use_size_sum" => {
                ledger.set("core.defuse.avg_uses", value / units, sources.len())
            }
            name => ledger.set(name, *value, BATCH_PASSES),
        }
    }
    let ratio = |num: &str, den: &str| if c[den] > 0.0 { c[num] / c[den] } else { 0.0 };
    ledger.set(
        "core.depgen.bypass_ratio",
        ratio("core.depgen.edges_final", "core.depgen.edges_raw"),
        BATCH_PASSES,
    );
    let discharged = c["core.triage.discharged_octagon"] + c["core.triage.discharged_path"];
    let candidates = c["core.triage.candidates"];
    ledger.set(
        "core.triage.discharge_ratio",
        if candidates > 0.0 {
            discharged / candidates
        } else {
            0.0
        },
        BATCH_PASSES,
    );
    let front_ms = ["cfront.lex_ms", "cfront.parse_ms", "cfront.lower_ms"]
        .iter()
        .map(|m| ledger.get(m))
        .sum::<f64>();
    ledger.set(
        "cfront.lines_per_s",
        lines as f64 / (front_ms / 1e3),
        BATCH_PASSES,
    );
    ledger.set(
        "core.sparse.evals_per_s",
        c["core.sparse.iterations"] / (ledger.get("core.sparse.solve_ms") / 1e3),
        BATCH_PASSES,
    );
    let run_ms = ledger.get("pipeline.run_ms");
    ledger.set(
        "trace.overhead_share",
        run_ms / median(&untraced) - 1.0,
        BATCH_PASSES,
    );
    let coverage: Vec<f64> = (0..BATCH_PASSES)
        .map(|p| pass_sum_ms(tracer, p, &BATCH_STAGES) / pass_sum_ms(tracer, p, &["pipeline.run"]))
        .collect();
    ledger.set("trace.staged_coverage", median(&coverage), BATCH_PASSES);
    Ok(Traced { ledger, check })
}

// ---- warm_rerun ------------------------------------------------------------

fn warm(seed: u64, root: &Path, tracer: &mut Tracer) -> Result<Traced, String> {
    let w = Workload::WarmRerun;
    measure::prepare(w, seed, root)?;
    let layout = Layout::in_dir(root);
    let options = workloads::options(Some(layout.cache.clone()));
    let project = Project::Dir(layout.corpus);
    let sources = w.sources(seed);
    let mut check = Check::default();

    let reference = pipeline::run(&project, &options);
    check::units_pass(
        &mut check,
        "reference",
        &reference,
        sources.len(),
        |_, _| Vec::new(),
    );
    let reference = reference.map_err(|e| e.to_string())?;
    let reference_text = reference.to_compact();
    let hit_ratio = check::hit_rate(&reference).unwrap_or(0.0);

    let cache = Cache::open(&layout.cache).map_err(|e| e.to_string())?;
    let scratch_dir = root.join("scratch-cache");
    let journal_dir = root.join("scratch-journal");
    let mut passes: Vec<Counts> = Vec::new();
    let mut entry_bytes = 0u64;
    let mut untraced = Vec::new();
    for pass in 0..WARM_PASSES {
        untraced.push(untraced_pass_ms(&project, &options)?);
        tracer.set_pass(pass);
        let mut counts = Counts::new();
        let scratch = Cache::open(&scratch_dir).map_err(|e| e.to_string())?;
        let journal = Journal::open(&journal_dir).map_err(|e| e.to_string())?;
        entry_bytes = 0;
        let mut misses = Vec::new();
        alloc::set_enabled(true);
        let outcome = tracer.span("pass", None, |t| -> Result<(), String> {
            let report = t
                .span("pipeline.run", None, |_| pipeline::run(&project, &options))
                .map_err(|e| e.to_string())?;
            if report.to_compact() != reference_text {
                misses.push(format!("traced pass {pass}: report differs"));
            }
            for (i, ((name, source), unit)) in sources.iter().zip(units_of(&reference)).enumerate()
            {
                let u = Some(i);
                let key = t.span("pipeline.key", u, |_| {
                    pipeline::unit_cache_key(&options, source)
                });
                let loaded = t.span("pipeline.cache.load", u, |_| cache.load(name, key));
                let LoadOutcome::Hit(analysis) = loaded else {
                    return Err(format!(
                        "{name}: no cache entry under the pipeline's own key"
                    ));
                };
                entry_bytes += std::fs::metadata(cache.path_for(name, key)).map_or(0, |m| m.len());
                t.span("pipeline.cache.store", u, |_| {
                    scratch.store(name, key, &analysis)
                })
                .map_err(|e| e.to_string())?;
                let record = JournalRecord {
                    index: i,
                    name: name.clone(),
                    key,
                    failure: None,
                    unit: unit.clone(),
                };
                t.span("pipeline.journal.record", u, |_| journal.record(&record))
                    .map_err(|e| e.to_string())?;
                let rendered: Vec<Json> = t.span("diag.render_json", u, |_| {
                    analysis.diags.iter().map(Diagnostic::to_json).collect()
                });
                t.span("diag.sarif", u, |_| {
                    std::hint::black_box(sarif::to_sarif(name, &analysis.diags))
                });
                add(&mut counts, "diag.diagnostics", rendered.len() as f64);
            }
            let replayed = t.span("pipeline.journal.load", None, |_| journal.load());
            let units_json: Vec<Json> = units_of(&reference).to_vec();
            let assembled = t
                .span("pipeline.assemble_report", None, |_| {
                    pipeline::assemble_report(units_json, &options)
                })
                .map_err(|e| e.to_string())?;
            if replayed.len() != sources.len() {
                misses.push(format!(
                    "journal replayed {} of {} records",
                    replayed.len(),
                    sources.len()
                ));
            }
            if assembled.to_compact() != reference_text {
                misses.push("assemble_report over the report's own units differs from it".into());
            }
            Ok(())
        });
        alloc::set_enabled(false);
        let _ = journal.clear();
        let _ = std::fs::remove_dir_all(&scratch_dir);
        outcome?;
        add(
            &mut counts,
            "pipeline.cache.entry_bytes",
            entry_bytes as f64,
        );
        passes.push(counts);
        misses.extend(count_misses(&passes[0], pass, &passes[pass]));
        check.op(misses);
    }

    // One more pass with every unit shipped to a worker process: what the
    // spawn + sealed pipe round trip costs per unit over the thread pass.
    let process_options = PipelineOptions {
        isolation: IsolationMode::Process,
        ..options.clone()
    };
    let before = pipeline::worker::stats();
    let t = Instant::now();
    let isolated = pipeline::run(&project, &process_options);
    let process_ms = ms_since(t);
    let moved = pipeline::worker::stats().since(&before);
    let reference_units = check::unit_texts(&reference);
    check::units_pass(
        &mut check,
        "process-isolated pass",
        &isolated,
        sources.len(),
        check::same_as(&reference_units),
    );
    // The pool itself: no worker may have been killed or retried.
    check.op(if moved.killed + moved.retried > 0 {
        vec![format!(
            "workers killed {} retried {}",
            moved.killed, moved.retried
        )]
    } else {
        Vec::new()
    });

    let mut ledger = Ledger::default();
    let measured = WARM_STAGES.into_iter().chain([
        "pipeline.run",
        "pipeline.cache.store",
        "pipeline.journal.load",
        "diag.sarif",
    ]);
    set_ms(&mut ledger, tracer, WARM_PASSES, measured);
    for (name, value) in &passes[0] {
        ledger.set(name, *value, WARM_PASSES);
    }
    let load_s = ledger.get("pipeline.cache.load_ms") / 1e3;
    ledger.set(
        "pipeline.cache.load_mb_per_s",
        entry_bytes as f64 / 1e6 / load_s,
        WARM_PASSES,
    );
    ledger.set("pipeline.cache.hit_ratio", hit_ratio, 1);
    let run_ms = ledger.get("pipeline.run_ms");
    ledger.set(
        "pipeline.worker.roundtrip_ms",
        (process_ms - run_ms) / sources.len() as f64,
        1,
    );
    ledger.set("pipeline.worker.retried", moved.retried as f64, 1);
    ledger.set("pipeline.worker.killed", moved.killed as f64, 1);
    ledger.set(
        "trace.overhead_share",
        run_ms / median(&untraced) - 1.0,
        WARM_PASSES,
    );
    let coverage: Vec<f64> = (0..WARM_PASSES)
        .map(|p| pass_sum_ms(tracer, p, &WARM_STAGES) / pass_sum_ms(tracer, p, &["pipeline.run"]))
        .collect();
    ledger.set("trace.staged_coverage", median(&coverage), WARM_PASSES);
    Ok(Traced { ledger, check })
}

// ---- serve_edits -----------------------------------------------------------

/// Replays the first [`TRACE_EDITS`] edits of the script through
/// `Engine::apply_edits` on a fresh engine, no socket. Returns the exact
/// counts.
fn replay_in_process(
    seed: u64,
    work: &Path,
    pass: usize,
    tracer: &mut Tracer,
    check: &mut Check,
) -> Result<Counts, String> {
    measure::prepare(Workload::ServeEdits, seed, work)?;
    let layout = Layout::in_dir(work);
    let options = workloads::options(None);
    tracer.set_pass(pass);
    let mut engine = tracer
        .span("serve.engine.cold_start", None, |_| {
            Engine::new(&layout.corpus, &options)
        })
        .map_err(|e| e.to_string())?;
    let mut script = EditScript::new(seed, 0);
    let warm_up = script.warm_up();
    engine
        .apply_edits(vec![(warm_up.unit, warm_up.source)])
        .map_err(|e| e.to_string())?;

    let mut counts = Counts::new();
    for (k, edit) in script.take(TRACE_EDITS).enumerate() {
        let (span, invalidated_key, rounds_key) = match edit.kind {
            EditKind::Body => ("serve.engine.round_body", "invalidated_body", "rounds_body"),
            EditKind::Iface => (
                "serve.engine.round_iface",
                "invalidated_iface",
                "rounds_iface",
            ),
        };
        let outcome = tracer
            .span(span, Some(k), |_| {
                engine.apply_edits(vec![(edit.unit.clone(), edit.source)])
            })
            .map_err(|e| e.to_string())?;
        tracer
            .span("serve.engine.report", Some(k), |_| engine.report())
            .map_err(|e| e.to_string())?;
        check.op(
            if outcome.invalidated.len() == edit.kind.expected_invalidated() {
                Vec::new()
            } else {
                vec![format!(
                    "{:?} edit of {} re-analysed {:?}",
                    edit.kind, edit.unit, outcome.invalidated
                )]
            },
        );
        add(
            &mut counts,
            invalidated_key,
            outcome.invalidated.len() as f64,
        );
        add(&mut counts, rounds_key, 1.0);
    }
    Ok(counts)
}

fn serve(seed: u64, root: &Path, tracer: &mut Tracer) -> Result<Traced, String> {
    let mut check = Check::default();
    // The same edits twice on fresh engines: the counts must agree.
    let mut passes: Vec<Counts> = Vec::new();
    for pass in 0..2 {
        let work = root.join(format!("in-process-{pass}"));
        passes.push(replay_in_process(seed, &work, pass, tracer, &mut check)?);
        check.op(count_misses(&passes[0], pass, &passes[pass]));
    }

    // `RoundJournal::record` on one analysed unit of the corpus.
    let sources = Workload::ServeEdits.sources(seed);
    let options = workloads::options(None);
    let unit = pipeline::UnitInput {
        name: sources[0].0.clone(),
        source: sources[0].1.clone(),
    };
    let outcome = pipeline::analyze_units(std::slice::from_ref(&unit), &options, None)
        .pop()
        .ok_or("analyze_units returned nothing")?;
    let analysis = outcome.analysis.ok_or("unit crashed")?;
    let rounds = RoundJournal::open(&root.join("round-journal")).map_err(|e| e.to_string())?;
    let key = pipeline::unit_cache_key(&options, &unit.source);
    for k in 0..ROUND_RECORDS {
        tracer
            .span("serve.journal.record", Some(k), |_| {
                rounds.record(
                    &unit.name,
                    key,
                    &outcome.json,
                    &analysis.diags,
                    &analysis.interface,
                )
            })
            .map_err(|e| e.to_string())?;
    }

    // The same edits over the socket, with the harness timing the ack and
    // the whole round from outside.
    let work = root.join("socket");
    measure::prepare(Workload::ServeEdits, seed, &work)?;
    let mut session = ServeSession::start(seed, 0, &work)?;
    let (mut acks, mut socket_body) = (Vec::new(), Vec::new());
    for _ in 0..TRACE_EDITS {
        match session.next_round() {
            Ok((kind, ack_ms, round_ms)) => {
                check.op(Vec::new());
                acks.push(ack_ms);
                if kind == EditKind::Body {
                    socket_body.push(round_ms);
                }
            }
            Err(e) => {
                check.op(vec![e]);
                break;
            }
        }
    }
    let (shed, evicted) = session.server_counters();
    let report = session.final_report();
    session.stop();
    let mut misses = check::converged(&report, &Layout::in_dir(&work).corpus);
    if shed + evicted > 0 {
        misses.push(format!(
            "daemon shed {shed} edits, evicted {evicted} subscribers"
        ));
    }
    check.op(misses);

    let mut ledger = Ledger::default();
    let each = |name: &str| tracer.each_ms(name);
    let body = each("serve.engine.round_body");
    let iface = each("serve.engine.round_iface");
    ledger.set(
        "serve.engine.cold_start_ms",
        median(&each("serve.engine.cold_start")),
        2,
    );
    ledger.set("serve.engine.round_body_ms", median(&body), body.len());
    ledger.set("serve.engine.round_iface_ms", median(&iface), iface.len());
    let reports = each("serve.engine.report");
    ledger.set("serve.engine.report_ms", median(&reports), reports.len());
    ledger.set(
        "serve.journal.record_ms",
        median(&each("serve.journal.record")),
        ROUND_RECORDS,
    );
    let c = &passes[0];
    let get = |k: &str| c.get(k).copied().unwrap_or(0.0);
    let per_round = |inv: &str, rounds: &str| {
        if get(rounds) > 0.0 {
            get(inv) / get(rounds)
        } else {
            0.0
        }
    };
    ledger.set(
        "serve.engine.invalidated_body",
        per_round("invalidated_body", "rounds_body"),
        get("rounds_body") as usize,
    );
    ledger.set(
        "serve.engine.invalidated_iface",
        per_round("invalidated_iface", "rounds_iface"),
        get("rounds_iface") as usize,
    );
    let invalidated = get("invalidated_body") + get("invalidated_iface");
    ledger.set(
        "serve.engine.spared_ratio",
        1.0 - invalidated / (TRACE_EDITS * SERVE_UNITS) as f64,
        TRACE_EDITS,
    );
    ledger.set("serve.server.ack_ms", median(&acks), acks.len());
    ledger.set(
        "serve.server.event_lag_ms",
        median(&socket_body) - median(&body),
        socket_body.len(),
    );
    ledger.set("serve.server.shed", shed as f64, 1);
    ledger.set("serve.server.evicted_slow", evicted as f64, 1);
    Ok(Traced { ledger, check })
}

// ---- the sizing ladder -----------------------------------------------------

/// Rows of `table1_rows()` the ladder visits: gzip, less, sendmail,
/// nethack, ghostscript.
const LADDER_ROWS: [usize; 5] = [0, 3, 8, 9, 15];

/// One traced pass over each ladder row, printed as the share of the staged
/// time each layer takes — the shape effects behind the workload sizes.
pub fn ladder() -> Result<bool, String> {
    let root = PathBuf::from(WORK_ROOT).join(format!("ladder-{}", std::process::id()));
    let options = workloads::options(None);
    let groups: [(&str, &[&str]); 7] = [
        ("front", &["cfront.lex", "cfront.parse", "cfront.lower"]),
        ("pre+icfg", &["core.preanalysis", "core.icfg"]),
        ("defuse", &["core.defuse"]),
        ("depgen+csr", &["core.depgen", "core.depstore.csr_build"]),
        ("fix", &["core.sparse.solve"]),
        ("checker", &["core.checker"]),
        ("triage", &["core.triage.octagon", "core.triage.path"]),
    ];
    print!(
        "{:<18}{:>7}{:>7}{:>6}{:>10}",
        "row", "lines", "procs", "scc", "run_ms"
    );
    for (label, _) in &groups {
        print!("{label:>12}");
    }
    println!();
    let rows = sga_bench::table1_rows();
    let mut check = Check::default();
    let mut tracer = Tracer::new();
    for (pass, &row) in LADDER_ROWS.iter().enumerate() {
        let config = &rows[row].config;
        let corpus = root.join(format!("row{row}"));
        std::fs::create_dir_all(&corpus).map_err(|e| e.to_string())?;
        let sources = vec![("unit000.c".to_string(), sga::cgen::generate(config))];
        std::fs::write(corpus.join(&sources[0].0), &sources[0].1).map_err(|e| e.to_string())?;
        let project = Project::Dir(corpus);
        let outcome = batch_pass(
            &mut tracer,
            pass,
            &sources,
            &project,
            &options,
            false,
            &mut check,
        );
        let _ = std::fs::remove_dir_all(&root);
        outcome?;
        let staged = pass_sum_ms(&tracer, pass, &BATCH_STAGES);
        print!(
            "{:<18}{:>7}{:>7}{:>6}{:>10.0}",
            rows[row].name,
            sources[0].1.lines().count(),
            config.functions,
            config.max_scc,
            pass_sum_ms(&tracer, pass, &["pipeline.run"])
        );
        for (_, spans) in &groups {
            print!(
                "{:>11.1}%",
                100.0 * pass_sum_ms(&tracer, pass, spans) / staged
            );
        }
        println!();
    }
    for m in &check.messages {
        println!("FAILED {m}");
    }
    Ok(check.passed())
}
