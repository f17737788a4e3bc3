//! Per-unit analysis: the sparse interval analysis of one translation unit,
//! its checkers and its triage.
//!
//! A unit is staged and solved by `sga-core`'s one staging of the sparse
//! chain, [`Pipeline`] — the same [`Pipeline::prepare`] and
//! [`Pipeline::solve`] that `sga_core::interval::analyze_with` and the
//! CLI's checks run — and its stage wall times are the ones the staging
//! measured, plus its checks and triage. A unit runs on one thread;
//! [`crate::run`] and [`crate::analyze_units`] run units concurrently.

use crate::PipelineOptions;
use sga_core::budget::Budget;
use sga_core::checker;
use sga_core::interface::{self, UnitInterface};
use sga_core::interval::{Engine, Pipeline, SparseSolution};
use sga_core::triage;
use sga_diag::Diagnostic;
use sga_domains::{AbsLoc, Value};
use sga_ir::{Cp, Program};
use sga_utils::fxhash::FxHasher;
use sga_utils::stats::{Stage, StageTimes};
use sga_utils::FxHashMap;
use std::fmt::Write;
use std::hash::{Hash, Hasher};

/// Everything the driver keeps about one analyzed unit.
#[derive(Clone, Debug, PartialEq)]
pub struct UnitAnalysis {
    /// Procedures the unit defines (externals not counted).
    pub procs: usize,
    /// The unit's link boundary: exported per-function interfaces and
    /// imported external symbols with their reverse dependents — the
    /// incremental daemon's invalidation substrate.
    pub interface: UnitInterface,
    /// Structured diagnostics in canonical order: all four checkers, with
    /// content fingerprints assigned and the octagon triage verdicts
    /// applied.
    pub diags: Vec<Diagnostic>,
    /// Whether the triage octagon run degraded under its budget (triage
    /// then discharges less; the unit's own `degraded` flag is separate).
    pub triage_degraded: bool,
    /// Order-independent hash of every (point, location, value) binding.
    pub fingerprint: u64,
    /// Ascending-phase node evaluations.
    pub iterations: usize,
    /// Interned abstract locations.
    pub num_locs: usize,
    /// Dependency edges before the bypass contraction.
    pub dep_edges_raw: usize,
    /// Dependency edges the solver actually propagates along.
    pub dep_edges: usize,
    /// Whether the fixpoint ran out of its analysis budget and finished in
    /// degraded (sound but less precise) mode.
    pub degraded: bool,
}

/// The solver-facing artifacts of one unit's analysis, kept past the
/// report-facing [`UnitAnalysis`] so the validation oracle
/// ([`sga_core::validate`]) can re-check the fixpoint it actually came from.
pub struct UnitInternals<'p> {
    /// The unit's staging: pre-analysis, ICFG, def/use sets and the
    /// dependency edges the solver propagated along.
    pub staged: Pipeline<'p>,
    /// The solved fixpoint the diagnostics came from, as the engine's rows
    /// (`stats.degraded` says whether it degraded under its budget).
    /// `stats.times` is where the unit's time went: the staging's and the
    /// solve's stages, then `check` and `triage`.
    pub solved: SparseSolution,
}

/// Runs the full sparse interval analysis of one parsed unit under
/// `options` and `budget`, then its checkers and triage; the unit's stage
/// times come back in `internals.solved.stats.times`.
pub fn analyze_unit<'p>(
    program: &'p Program,
    options: &PipelineOptions,
    budget: &Budget,
) -> (UnitAnalysis, UnitInternals<'p>) {
    let staged = Pipeline::prepare(program, options.analyze_options(budget));
    // The answer outlives the check stage: the path-condition triage layer
    // evaluates dominating guards against the same inputs the alarms read
    // (and its `degraded` flag gates that layer off entirely).
    let mut solved = staged.solve(budget);
    let stats = &solved.stats;
    let mut times = StageTimes::default();
    // The checkers and the path layer read values before a point as the
    // inputs the solve computed: the in-edges of the staged relation.
    let q = staged.inputs(&solved);
    let (mut diags, fingerprint) = times.time(Stage::Check, || {
        (
            checker::check_all_staged(&q, &staged.pre),
            fingerprint_values(solved.rows.iter(), solved.rows.locs()),
        )
    });

    let triage_degraded = times.time(Stage::Triage, || {
        let topts = options.triage_options(Engine::Sparse, stats.iterations, budget);
        triage::discharge_staged(&staged.pre, &q, &mut diags, &topts).degraded
    });

    let analysis = UnitAnalysis {
        procs: program.procs.iter().filter(|p| !p.is_external).count(),
        interface: interface::unit_interface(program, &staged.pre, &staged.du),
        diags,
        triage_degraded,
        fingerprint,
        iterations: stats.iterations,
        num_locs: stats.num_locs,
        dep_edges_raw: stats.dep_edges_raw,
        dep_edges: stats.dep_edges,
        degraded: stats.degraded,
    };
    solved.stats.times.merge(&times);
    (analysis, UnitInternals { staged, solved })
}

/// Order-independent content hash of a unit's values: the fxhash of the
/// sorted list of lines `format!("{cp} {l:?} = {v:?}")`, one per binding.
///
/// Computed from the engine's rows, without the list: `points` yields each
/// point's row, whose entries name their location by rank in `locs`. No
/// point or location text holds a space, so the point heads `"{cp} "` are
/// prefix-free, and so are the location keys `"{l:?} = "`: the sorted line
/// order is the heads' order, then each point's keys' order. Each bound
/// point's head is formatted once; each location a row uses gets its key
/// formatted once, and with it a text rank, the key's place among the used
/// keys, which orders a row's entries; each distinct value's text is
/// formatted once. Each line is built in one reused buffer and fed to the
/// hasher as hashing the list of lines feeds it — the list's length, then
/// every line in order.
pub fn fingerprint_values<'a>(
    points: impl IntoIterator<Item = (Cp, &'a [(u32, Value)])>,
    locs: &[AbsLoc],
) -> u64 {
    let mut heads = String::new();
    let mut bound = Vec::new();
    // Rank → text rank; `u32::MAX` until a row uses the location.
    let mut text_rank = vec![u32::MAX; locs.len()];
    let mut used = Vec::new();
    let mut lines = 0;
    for (cp, row) in points {
        if row.is_empty() {
            continue;
        }
        let start = heads.len();
        write!(heads, "{cp} ").expect("writing to a String");
        bound.push((start, heads.len(), row));
        for &(r, _) in row {
            if text_rank[r as usize] == u32::MAX {
                text_rank[r as usize] = 0;
                used.push(r);
            }
        }
        lines += row.len();
    }
    let mut keys = String::new();
    let mut key_at: Vec<(u32, usize, usize)> = used
        .into_iter()
        .map(|r| {
            let start = keys.len();
            write!(keys, "{:?} = ", locs[r as usize]).expect("writing to a String");
            (r, start, keys.len())
        })
        .collect();
    key_at.sort_unstable_by(|a, b| keys[a.1..a.2].cmp(&keys[b.1..b.2]));
    for (t, &(r, _, _)) in key_at.iter().enumerate() {
        text_rank[r as usize] = t as u32;
    }
    bound.sort_unstable_by_key(|&(start, end, _)| &heads[start..end]);

    let mut hasher = FxHasher::default();
    hasher.write_usize(lines);
    let mut texts = String::new();
    let mut text_of: FxHashMap<&Value, (usize, usize)> = FxHashMap::default();
    let (mut entries, mut line) = (Vec::new(), String::new());
    for &(start, end, row) in &bound {
        entries.clear();
        entries.extend(row.iter().map(|(r, v)| (text_rank[*r as usize], v)));
        entries.sort_unstable_by_key(|&(t, _)| t);
        for &(t, v) in &entries {
            let (a, b) = *text_of.entry(v).or_insert_with(|| {
                let start = texts.len();
                write!(texts, "{v:?}").expect("writing to a String");
                (start, texts.len())
            });
            let (_, ka, kb) = key_at[t as usize];
            line.clear();
            line.push_str(&heads[start..end]);
            line.push_str(&keys[ka..kb]);
            line.push_str(&texts[a..b]);
            line.as_str().hash(&mut hasher);
        }
    }
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sga_cgen::GenConfig;
    use sga_core::depgen::DepGenOptions;
    use sga_core::interval::AnalyzeOptions;
    use sga_domains::locs::AllocSite;
    use sga_domains::State;
    use sga_ir::{FieldId, NodeId, ProcId, VarId};
    use sga_utils::{fxhash, Idx};
    use std::path::Path;

    /// The definition: every binding rendered to one line
    /// `format!("{cp} {l:?} = {v:?}")`, the lines sorted, the sorted list of
    /// `String`s hashed with fxhash.
    fn by_definition(values: &FxHashMap<Cp, State>) -> u64 {
        let mut lines: Vec<String> = Vec::new();
        for (cp, state) in values {
            for (l, v) in state.iter() {
                lines.push(format!("{cp} {l:?} = {v:?}"));
            }
        }
        lines.sort_unstable();
        fxhash::hash_one(&lines)
    }

    /// Solves `program` as [`analyze_unit`] does under `options`, and holds
    /// the fingerprint of the rows to the definition over the [`State`] map
    /// they convert to. Returns whether the solve degraded.
    fn assert_by_definition(what: &str, program: &Program, options: AnalyzeOptions) -> bool {
        let staged = Pipeline::prepare(program, options);
        let solved = staged.solve(&options.budget);
        let hashed = fingerprint_values(solved.rows.iter(), solved.rows.locs());
        let degraded = solved.stats.degraded;
        let values = solved.into_result().values;
        assert!(
            values.values().any(|s| !s.is_empty()),
            "{what}: nothing bound"
        );
        assert_eq!(
            hashed,
            by_definition(&values),
            "{what}: the fingerprint left its definition"
        );
        degraded
    }

    #[test]
    fn fingerprint_is_the_hash_of_the_sorted_binding_lines() {
        let default = AnalyzeOptions::default();
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/alarms");
        let mut units = 0;
        for entry in std::fs::read_dir(dir).expect("tests/alarms") {
            let path = entry.expect("a directory entry").path();
            if path.extension().is_some_and(|e| e == "c") {
                let src = std::fs::read_to_string(&path).expect("a readable unit");
                let program = sga_cfront::parse(&src).expect("the unit parses");
                assert_by_definition(&path.display().to_string(), &program, default);
                units += 1;
            }
        }
        assert!(units >= 20, "tests/alarms has {units} units");
        let scc = GenConfig {
            target_loc: 600,
            functions: 20,
            max_scc: 18,
            ..GenConfig::sized(22, 1)
        };
        let parse =
            |config: &GenConfig| sga_cfront::parse(&sga_cgen::generate(config)).expect("parses");
        for (what, config) in [("flat", GenConfig::sized(21, 1)), ("scc", scc.clone())] {
            assert_by_definition(what, &parse(&config), default);
        }
        let program = parse(&scc);
        let no_bypass = AnalyzeOptions {
            depgen: DepGenOptions { bypass: false },
            ..default
        };
        assert!(!assert_by_definition(
            "scc, --no-bypass",
            &program,
            no_bypass
        ));
        let exhausted = AnalyzeOptions {
            budget: Budget::with_max_steps(50),
            ..default
        };
        assert!(
            assert_by_definition("scc, out of budget", &program, exhausted),
            "a budget of 50 steps degrades the solve"
        );

        let (locs, rows) = prefixes();
        let values: FxHashMap<Cp, State> = (rows.iter())
            .map(|(cp, row)| {
                let bound = row.iter().map(|(r, v)| (locs[*r as usize], v.clone()));
                (*cp, bound.fold(State::new(), |s, (l, v)| s.set(l, v)))
            })
            .collect();
        let points = rows.iter().map(|(cp, row)| (*cp, row.as_slice()));
        assert_eq!(
            fingerprint_values(points, &locs),
            by_definition(&values),
            "prefixes: the fingerprint left its definition"
        );
    }

    /// Rows whose point and location texts are prefixes of one another —
    /// `p1:n2` and `p1:n23`, `v1`, `v12` and `v1.f0`, an allocation site
    /// and its field — and whose numeric order is not their text order
    /// (`p1:n3` after `p1:n23`, `v2` after `v12`), with the ascending rank
    /// → location table they are keyed by. Each binds every location, to
    /// values that repeat across points.
    #[allow(clippy::type_complexity)]
    fn prefixes() -> (Vec<AbsLoc>, Vec<(Cp, Vec<(u32, Value)>)>) {
        let cp = |p: usize, n: usize| Cp::new(ProcId::new(p), NodeId::new(n));
        let (var, field) = (|v: usize| VarId::new(v), FieldId::new(0));
        let site = |p, n| AllocSite(cp(p, n));
        let mut locs = vec![
            AbsLoc::Var(var(1)),
            AbsLoc::Var(var(12)),
            AbsLoc::Var(var(2)),
            AbsLoc::Field(var(1), field),
            AbsLoc::Field(var(12), field),
            AbsLoc::Alloc(site(1, 2)),
            AbsLoc::AllocField(site(1, 2), field),
            AbsLoc::Alloc(site(1, 23)),
            AbsLoc::AllocField(site(1, 23), field),
        ];
        locs.sort_unstable();
        let points = [cp(1, 2), cp(1, 23), cp(1, 3), cp(12, 0), cp(2, 0)];
        let rows = (points.iter().enumerate())
            .map(|(i, &at)| {
                let row =
                    (0..locs.len()).map(|r| (r as u32, Value::constant(((i + r) % 7) as i64)));
                (at, row.collect())
            })
            .collect();
        (locs, rows)
    }
}
