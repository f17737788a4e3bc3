//! Property-based end-to-end fuzzing: random generator configurations must
//! produce programs that parse, validate, analyze under every engine, and
//! stay sound against concrete runs. This is the closest thing to throwing
//! arbitrary C at the pipeline while staying deterministic.

use proptest::prelude::*;
use sga::analysis::depgen::DepGenOptions;
use sga::analysis::interval::{analyze, analyze_with, AnalyzeOptions, Engine, Pipeline};
use sga::analysis::widening::{WideningConfig, WideningStrategy};
use sga::cgen::GenConfig;
use sga::domains::{AbsLoc, Lattice};
use sga::ir::interp::{self, CVal, InterpConfig, ObservedLoc, Place};

fn arb_config() -> impl Strategy<Value = GenConfig> {
    (
        any::<u64>(),
        200usize..800,
        2usize..30,
        0usize..40,
        0usize..6,
        0usize..8,
        0.0f64..0.5,
    )
        .prop_map(
            |(seed, loc, functions, globals, global_ptrs, max_scc, ptr_density)| GenConfig {
                seed,
                target_loc: loc,
                functions,
                globals: globals.max(1),
                global_ptrs,
                max_scc,
                ptr_density,
                stmts_per_block: 5,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn pipeline_never_panics_and_stays_sound(config in arb_config()) {
        let src = sga::cgen::generate(&config);
        let program = sga::frontend::parse(&src)
            .unwrap_or_else(|e| panic!("generated source must parse: {e}"));
        prop_assert!(sga::ir::validate::validate(&program).is_empty());

        let sparse = analyze(&program, Engine::Sparse);
        let base = analyze(&program, Engine::Base);
        prop_assert!(sparse.stats.iterations > 0);

        // Concrete runs must be covered by both engines' claims.
        let run = interp::run(
            &program,
            &InterpConfig {
                main_args: vec![3],
                unknown_supply: vec![1, -7, 100],
                fuel: 200_000,
                max_depth: 400,
            },
        );
        for obs in &run.log {
            let loc = match obs.target {
                ObservedLoc::Var(v) => AbsLoc::Var(v),
                ObservedLoc::Field(v, f) => AbsLoc::Field(v, f),
                ObservedLoc::AllocSite(cp) => AbsLoc::Alloc(sga::domains::locs::AllocSite(cp)),
                ObservedLoc::AllocField(cp, f) => {
                    AbsLoc::AllocField(sga::domains::locs::AllocSite(cp), f)
                }
            };
            for result in [&sparse, &base] {
                // Dense engines bind call results on the successor edge.
                let mut aval = result.value_at(obs.cp, &loc);
                if matches!(program.cmd(obs.cp), sga::ir::Cmd::Call { .. }) {
                    for &s in program.procs[obs.cp.proc].succs_of(obs.cp.node) {
                        aval = aval.join(
                            &result.value_at(sga::ir::Cp::new(obs.cp.proc, s), &loc),
                        );
                    }
                }
                let ok = match &obs.value {
                    CVal::Uninit => true,
                    CVal::Int(n) => aval.itv.contains(*n),
                    CVal::Fn(p) => aval.procs.contains(&AbsLoc::Proc(*p)),
                    CVal::Ptr(place, _) => match place {
                        Place::Global(v) | Place::Local(_, v) => {
                            aval.ptr.iter().any(|l| l.var() == Some(*v))
                                || aval.arr.iter().any(|(b, _)| b.var() == Some(*v))
                        }
                        Place::Heap(_, site) => {
                            let l = AbsLoc::Alloc(sga::domains::locs::AllocSite(*site));
                            aval.ptr.contains(&l) || aval.arr.iter().any(|(b, _)| *b == l)
                        }
                    },
                };
                prop_assert!(
                    ok,
                    "UNSOUND seed {} at {} for {loc:?}: concrete {:?} ⊄ {:?}",
                    config.seed,
                    obs.cp,
                    obs.value,
                    aval
                );
            }
        }
    }

    /// The widening strategies only ever *gain* precision over the naive
    /// baseline: every binding of a threshold or delayed fixpoint must be
    /// ⊑ the corresponding naive binding.
    #[test]
    fn strategy_fixpoints_refine_naive(config in arb_config()) {
        let src = sga::cgen::generate(&config);
        let program = sga::frontend::parse(&src)
            .unwrap_or_else(|e| panic!("generated source must parse: {e}"));

        let with_strategy = |strategy| {
            analyze_with(
                &program,
                Engine::Sparse,
                AnalyzeOptions {
                    widening: WideningConfig::of(strategy),
                    ..AnalyzeOptions::default()
                },
            )
        };
        let naive = with_strategy(WideningStrategy::Naive);
        for strategy in [WideningStrategy::Threshold, WideningStrategy::Delayed] {
            let refined = with_strategy(strategy);
            for (cp, st) in &refined.values {
                for (loc, v) in st.iter() {
                    let nv = naive.value_at(*cp, loc);
                    prop_assert!(
                        v.le(&nv),
                        "seed {}: {:?} at {cp} {loc:?} not ⊑ naive: {v:?} vs {nv:?}",
                        config.seed,
                        strategy.name()
                    );
                }
            }
        }
    }

    /// Injected faults never leak: whatever a seeded fault plan throws at a
    /// corpus (panics, starved budgets, cache corruption, IO errors), every
    /// unit the plan does not touch reports byte-identically to the
    /// fault-free run, at any worker count.
    #[test]
    fn faults_never_leak_into_nonfaulted_units(fault_seed in any::<u64>()) {
        use sga::pipeline::{run, FaultPlan, PipelineOptions, Project};

        const UNITS: usize = 3;
        let corpus = Project::Corpus { units: UNITS, kloc: 1, seed: 11 };
        let plan = FaultPlan::seeded(fault_seed, UNITS);

        // Each run gets its own cold cache so the cache-corruption and
        // IO-error faults exercise real stores.
        let render = |jobs: usize, faults: &FaultPlan, tag: &str| {
            let dir = std::env::temp_dir().join(format!(
                "sga-fuzz-fault-{}-{fault_seed:016x}-{tag}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let report = run(
                &corpus,
                &PipelineOptions {
                    jobs,
                    cache_dir: Some(dir.clone()),
                    canonical: true,
                    faults: faults.clone(),
                    ..PipelineOptions::default()
                },
            )
            .expect("keep-going run completes");
            let _ = std::fs::remove_dir_all(&dir);
            report
        };

        let clean = render(1, &FaultPlan::none(), "clean");
        let faulted = render(1, &plan, "faulted");
        prop_assert!(
            faulted.to_pretty() == render(4, &plan, "faulted-par").to_pretty(),
            "faulted report not deterministic across jobs (seed {fault_seed})"
        );

        let faulted_units = plan.faulted_units();
        let clean_units = clean.get("units").unwrap().as_arr().unwrap();
        let units = faulted.get("units").unwrap().as_arr().unwrap();
        for i in 0..UNITS {
            if faulted_units.contains(&i) {
                continue;
            }
            prop_assert!(
                units[i].to_pretty() == clean_units[i].to_pretty(),
                "seed {fault_seed}: fault leaked into unit {i}"
            );
        }

        // Exactly one panic is injected, and a panicking worker never
        // produces artifacts — it must show up as exactly one crash.
        let crashed = faulted
            .get("totals").unwrap()
            .get("crashed").unwrap()
            .as_u64().unwrap();
        prop_assert!(crashed == 1, "seed {fault_seed}: expected 1 crash, got {crashed}");
    }

    /// Warm-vs-cold validator agreement: the oracle's verdict on a unit is
    /// a property of the unit, not of where its artifacts came from. A
    /// validated run over a cold cache and a second over the warm cache
    /// (where every hit is held back and cross-checked against a
    /// recomputation) must produce identical per-unit validation blocks and
    /// outcomes.
    #[test]
    fn validator_verdicts_identical_warm_and_cold(corpus_seed in any::<u64>()) {
        use sga::pipeline::{run, PipelineOptions, Project};

        let corpus = Project::Corpus { units: 2, kloc: 1, seed: corpus_seed };
        let dir = std::env::temp_dir().join(format!(
            "sga-fuzz-validate-{}-{corpus_seed:016x}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = PipelineOptions {
            cache_dir: Some(dir.clone()),
            canonical: true,
            validate: true,
            ..PipelineOptions::default()
        };
        let cold = run(&corpus, &opts).expect("cold validated run completes");
        let warm = run(&corpus, &opts).expect("warm validated run completes");
        let _ = std::fs::remove_dir_all(&dir);

        prop_assert!(
            warm.get("totals").unwrap().get("invalid").unwrap().as_u64() == Some(0),
            "seed {corpus_seed}: warm run found invalid units"
        );
        let cold_units = cold.get("units").unwrap().as_arr().unwrap();
        let warm_units = warm.get("units").unwrap().as_arr().unwrap();
        for (i, (c, w)) in cold_units.iter().zip(warm_units).enumerate() {
            // The cache field legitimately differs (miss vs hit); the
            // verdict and every check count must not.
            prop_assert!(
                c.get("outcome") == w.get("outcome"),
                "seed {corpus_seed}: unit {i} outcome differs warm vs cold"
            );
            prop_assert!(
                c.get("validation").unwrap().to_pretty()
                    == w.get("validation").unwrap().to_pretty(),
                "seed {corpus_seed}: unit {i} validation differs warm vs cold"
            );
        }
    }

    /// §5's representation experiment on real relations: the BDD store
    /// must mirror the hash-map store's triples exactly.
    #[test]
    fn bdd_store_mirrors_the_relation(config in arb_config()) {
        use sga::bdd::DepStore as _;
        use std::collections::BTreeSet;

        let src = sga::cgen::generate(&config);
        let program = sga::frontend::parse(&src)
            .unwrap_or_else(|e| panic!("generated source must parse: {e}"));

        let pl = Pipeline::prepare(&program, AnalyzeOptions::default());
        let set_triples: BTreeSet<_> = pl.deps.iter().collect();

        let numbering = program.point_numbering();
        let mut bdd = sga::bdd::BddDepStore::new(
            numbering.len() as u32,
            pl.du.locs.len() as u32,
        );
        for (from, loc, to) in pl.deps.iter() {
            bdd.insert(sga::bdd::relation::DepTriple {
                from: numbering.index(from) as u32,
                to: numbering.index(to) as u32,
                loc,
            });
        }
        prop_assert!(
            bdd.len() == set_triples.len(),
            "seed {}: BDD mirror lost or invented triples",
            config.seed
        );
    }

    /// Triage-mode lattice: over seeded generated programs, the alarms
    /// discharged by `--triage both` must be a superset of those discharged
    /// by `--triage octagon` (and of `path`) — the layered pass only ever
    /// adds discharges. And the set of *definite* alarms is untouchable: its
    /// fingerprint set is byte-identical across every triage mode.
    #[test]
    fn triage_modes_form_a_superset_lattice(config in arb_config()) {
        use sga::analysis::triage::{self, TriageMode, TriageOptions};
        use sga::analysis::{checker, preanalysis};
        use sga::analysis::budget::Budget;
        use std::collections::BTreeSet;

        let src = sga::cgen::generate(&config);
        let program = sga::frontend::parse(&src)
            .unwrap_or_else(|e| panic!("generated source must parse: {e}"));
        let pre = preanalysis::run(&program);

        let mut discharged: std::collections::BTreeMap<&str, BTreeSet<u64>> =
            Default::default();
        let mut definite_renderings: BTreeSet<String> = Default::default();
        let result = analyze_with(&program, Engine::Sparse, AnalyzeOptions::default());
        for mode in [TriageMode::Octagon, TriageMode::Path, TriageMode::Both] {
            let mut diags = checker::check_all(&program, &result, &pre);
            triage::discharge(
                &program,
                &pre,
                &result,
                &mut diags,
                &TriageOptions {
                    budget: triage::derived_budget(
                        result.stats.iterations,
                        &Budget::unbounded(),
                    ),
                    mode,
                    ..TriageOptions::default()
                },
            );
            let fps: BTreeSet<u64> = diags
                .iter()
                .filter(|d| !d.is_open())
                .map(|d| d.fingerprint)
                .collect();
            discharged.insert(mode.name(), fps);
            let definite: String = diags
                .iter()
                .filter(|d| d.definite)
                .map(|d| format!("{:016x} {d}\n", d.fingerprint))
                .collect();
            definite_renderings.insert(definite);
        }
        let octagon = &discharged["octagon"];
        let path = &discharged["path"];
        let both = &discharged["both"];
        prop_assert!(
            octagon.is_subset(both),
            "seed {}: both-mode lost octagon discharges",
            config.seed
        );
        prop_assert!(
            path.is_subset(both),
            "seed {}: both-mode lost path discharges",
            config.seed
        );
        prop_assert!(
            definite_renderings.len() == 1,
            "seed {}: definite alarms differ across triage modes",
            config.seed
        );
    }

    /// Under the default `delayed` strategy the §5 bypass contraction is a
    /// pure optimization: bypass on/off produce bit-identical bindings.
    #[test]
    fn bypass_is_invisible_under_delayed(config in arb_config()) {
        let src = sga::cgen::generate(&config);
        let program = sga::frontend::parse(&src)
            .unwrap_or_else(|e| panic!("generated source must parse: {e}"));

        let with_bypass = |bypass| {
            analyze_with(
                &program,
                Engine::Sparse,
                AnalyzeOptions {
                    depgen: DepGenOptions { bypass },
                    widening: WideningConfig::of(WideningStrategy::Delayed),
                    ..AnalyzeOptions::default()
                },
            )
        };
        let on = with_bypass(true);
        let off = with_bypass(false);
        // Bypass-off stores extra bindings at relay nodes, so compare the
        // bypass-on bindings (the contracted graph's) against the other run.
        for (cp, st) in &on.values {
            for (loc, v) in st.iter() {
                let ov = off.value_at(*cp, loc);
                prop_assert!(
                    *v == ov,
                    "seed {}: bypass changed {cp} {loc:?}: {v:?} vs {ov:?}",
                    config.seed
                );
            }
        }
    }
}

// Each case below spawns three full `sga analyze` child processes, so the
// durability property runs fewer cases than the in-process suite above.
proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Kill-and-resume byte-identity, fuzzed: a seeded fault plan picks
    /// which unit hard-aborts (`std::process::abort`, no unwinding — an OOM
    /// kill to the next run) and which unit runs under a starved budget.
    /// The killed run's journal plus `--resume` must reproduce, byte for
    /// byte, the canonical report of a run that was never killed.
    #[test]
    fn killed_runs_resume_byte_identically(plan_seed in any::<u64>()) {
        const UNITS: usize = 3;
        let abort_at = (plan_seed % UNITS as u64) as usize;
        let budget_at = ((plan_seed >> 8) % UNITS as u64) as usize;
        let budget_steps = 20 + ((plan_seed >> 16) % 40);
        // The budget fault shapes the run either way; only the abort is
        // exclusive to the killed run.
        let base_faults = format!("budget@{budget_at}={budget_steps}");
        let kill_faults = format!("{base_faults},abort@{abort_at}");

        let analyze = |dir: &std::path::Path, faults: &str, resume: bool| {
            let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_sga"));
            cmd.args([
                "analyze",
                "--corpus",
                &format!("units={UNITS},kloc=1,seed=11"),
                "--cache-dir",
                &dir.to_string_lossy(),
                "--canonical",
                "--faults",
                faults,
            ]);
            if resume {
                cmd.arg("--resume");
            }
            cmd.output().expect("sga binary runs")
        };
        let scratch = |tag: &str| {
            let dir = std::env::temp_dir().join(format!(
                "sga-fuzz-abort-{}-{plan_seed:016x}-{tag}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        };

        let killed_dir = scratch("killed");
        let killed = analyze(&killed_dir, &kill_faults, false);
        prop_assert!(!killed.status.success(), "seed {plan_seed}: abort must kill the run");

        let resumed = analyze(&killed_dir, &base_faults, true);
        prop_assert!(
            resumed.status.code() == Some(0),
            "seed {plan_seed}: resume failed: {}",
            String::from_utf8_lossy(&resumed.stderr)
        );

        let fresh_dir = scratch("fresh");
        let fresh = analyze(&fresh_dir, &base_faults, false);
        prop_assert!(fresh.status.code() == Some(0));
        prop_assert!(
            resumed.stdout == fresh.stdout,
            "seed {plan_seed}: resumed report differs from the uninterrupted run"
        );

        let _ = std::fs::remove_dir_all(&killed_dir);
        let _ = std::fs::remove_dir_all(&fresh_dir);
    }
}
