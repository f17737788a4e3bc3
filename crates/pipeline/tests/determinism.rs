//! The pipeline's headline invariant: the report is independent of the
//! worker count. `--jobs 1`, `2` and `8` must produce *byte-identical*
//! canonical reports, and the pipeline's per-unit analysis must agree
//! exactly with the one-shot analyzer of `sga-core` under every option.

use sga_cgen::GenConfig;
use sga_core::budget::Budget;
use sga_core::depgen::DepGenOptions;
use sga_core::interval::{self, AnalyzeOptions, Engine};
use sga_core::triage::{self, TriageMode, TriageOptions};
use sga_core::widening::{WideningConfig, WideningStrategy};
use sga_core::{checker, preanalysis};
use sga_pipeline::{analyze_unit, run, PipelineOptions, Project};

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

/// [`analyze_unit`] agrees with the one-shot analyzer of `sga-core`
/// (`interval::analyze_with`, then `checker::check_all` and
/// `triage::discharge`) on a flat unit and on one whose call-graph SCC holds
/// 9 in 10 of its procedures (the `batch_scc` shape), under the default
/// options and under each non-default bypass, widening and triage mode: the
/// counts, every binding of the fixpoint, and every diagnostic — fingerprint,
/// status and proving pack — are equal. The unit charges its own stages,
/// from `pre` through `triage`, to one record.
#[test]
fn pipeline_unit_matches_one_shot_analyzer_across_shapes_and_options() {
    let flat = GenConfig::sized(21, 1);
    let scc = GenConfig {
        target_loc: 600,
        functions: 20,
        max_scc: 18,
        ..GenConfig::sized(22, 1)
    };
    let (bypass, delayed, both) = (
        DepGenOptions::default(),
        WideningConfig::default(),
        TriageMode::default(),
    );
    let no_bypass = DepGenOptions { bypass: false };
    let naive = WideningConfig::of(WideningStrategy::Naive);
    let rows = [
        ("flat", &flat, bypass, delayed, both),
        ("scc", &scc, bypass, delayed, both),
        ("flat, no bypass", &flat, no_bypass, delayed, both),
        ("scc, no bypass", &scc, no_bypass, delayed, both),
        ("flat, naive", &flat, bypass, naive, both),
        ("scc, naive", &scc, bypass, naive, both),
        ("flat, octagon", &flat, bypass, delayed, TriageMode::Octagon),
        ("flat, path", &flat, bypass, delayed, TriageMode::Path),
    ];
    for (what, config, depgen, widening, mode) in rows {
        let program = sga_cfront::parse(&sga_cgen::generate(config)).expect("corpus parses");

        let options = PipelineOptions {
            depgen,
            widening,
            triage: mode,
            ..PipelineOptions::default()
        };
        let (unit, internals) = analyze_unit(&program, &options, &Budget::unbounded());

        let reference = interval::analyze_with(
            &program,
            Engine::Sparse,
            AnalyzeOptions {
                depgen,
                widening,
                ..AnalyzeOptions::default()
            },
        );
        let pre = preanalysis::run(&program);
        let mut reference_diags = checker::check_all(&program, &reference, &pre);
        triage::discharge(
            &program,
            &pre,
            &reference,
            &mut reference_diags,
            &TriageOptions {
                depgen,
                widening,
                budget: triage::derived_budget(reference.stats.iterations, &Budget::unbounded()),
                mode,
                ..TriageOptions::default()
            },
        );

        assert_eq!(unit.iterations, reference.stats.iterations, "{what}");
        assert_eq!(unit.num_locs, reference.stats.num_locs, "{what}");
        assert_eq!(unit.dep_edges, reference.stats.dep_edges, "{what}");
        assert_eq!(unit.dep_edges_raw, reference.stats.dep_edges_raw, "{what}");
        let stages: Vec<&str> = internals
            .solved
            .stats
            .times
            .iter()
            .map(|(s, _)| s)
            .collect();
        let want = ["pre", "defuse", "dep", "fix", "check", "triage"];
        assert_eq!(stages, want, "{what}");
        assert!(
            internals.solved.into_result().values == reference.values,
            "{what}: fixpoints differ"
        );
        assert!(!reference_diags.is_empty(), "{what}: nothing to compare");
        assert_eq!(unit.diags, reference_diags, "{what}");
    }
}
