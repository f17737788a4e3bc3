//! The pipeline's headline invariant: the report is independent of the
//! worker count. `--jobs 1`, `2` and `8` must produce *byte-identical*
//! canonical reports, and the staged per-procedure schedule must agree
//! exactly with the sequential single-unit analyzer it decomposes.

use sga_core::budget::Budget;
use sga_core::depgen::DepGenOptions;
use sga_core::interval::{self, Engine};
use sga_core::widening::WideningConfig;
use sga_pipeline::{analyze_unit, run, PipelineOptions, Project};
use sga_utils::stats::StageTimers;

fn corpus() -> Project {
    Project::Corpus {
        units: 3,
        kloc: 1,
        seed: 7,
    }
}

#[test]
fn report_is_byte_identical_across_job_counts() {
    let render = |jobs: usize| {
        let opts = PipelineOptions {
            jobs,
            canonical: true,
            ..PipelineOptions::default()
        };
        run(&corpus(), &opts).expect("pipeline run").to_pretty()
    };
    let sequential = render(1);
    assert!(sequential.contains("\"fingerprint\""));
    for jobs in [2, 8] {
        let parallel = render(jobs);
        assert_eq!(sequential, parallel, "jobs=1 vs jobs={jobs} reports differ");
    }
}

#[test]
fn staged_schedule_matches_sequential_analyzer() {
    let source = sga_cgen::generate(&sga_cgen::GenConfig::sized(21, 1));
    let program = sga_cfront::parse(&source).expect("corpus parses");

    // The reference: the one-shot sparse analyzer from sga-core.
    let reference = interval::analyze(&program, Engine::Sparse);

    // The staged per-procedure schedule, with real worker threads.
    let timers = StageTimers::new();
    let staged = analyze_unit(
        &program,
        4,
        DepGenOptions::default(),
        WideningConfig::default(),
        sga_core::triage::TriageMode::default(),
        &Budget::unbounded(),
        &timers,
    );

    assert_eq!(staged.iterations, reference.stats.iterations);
    assert_eq!(staged.num_locs, reference.stats.num_locs);
    assert_eq!(staged.dep_edges, reference.stats.dep_edges);
    assert_eq!(staged.dep_edges_raw, reference.stats.dep_edges_raw);

    // The reference diagnostics: same checkers, same triage, over the
    // one-shot result — the staged schedule must reproduce them exactly,
    // fingerprints, triage verdicts and all.
    let pre = sga_core::preanalysis::run(&program);
    let mut reference_diags = sga_core::checker::check_all(&program, &reference, &pre);
    sga_core::triage::discharge(
        &program,
        &pre,
        &reference,
        &mut reference_diags,
        &sga_core::triage::TriageOptions {
            budget: sga_core::triage::derived_budget(
                reference.stats.iterations,
                &Budget::unbounded(),
            ),
            ..sga_core::triage::TriageOptions::default()
        },
    );
    assert_eq!(staged.diags, reference_diags);
}
