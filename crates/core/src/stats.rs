//! Per-phase measurements — the columns of Tables 2 and 3.

use sga_utils::stats::{Stage, StageTimes};
use std::time::Duration;

/// Timing/size statistics of one analyzer run.
#[derive(Clone, Debug, Default)]
pub struct AnalysisStats {
    /// Where the run's time went, stage by stage; the stages are disjoint
    /// (`dep` is dependency generation alone, `fix` the fixpoint). A dense
    /// engine charges no `dep`.
    pub times: StageTimes,
    /// End-to-end time (`Total`).
    pub total_time: Duration,
    /// Peak RSS observed after the run, if the platform reports it.
    pub peak_mem_bytes: Option<u64>,
    /// Pre-analysis rounds until its fixpoint.
    pub pre_rounds: usize,
    /// Pre-analysis command evaluations, summed over the rounds.
    pub pre_evaluations: usize,
    /// Commands the pre-analysis evaluates (`pre_rounds × pre_commands`
    /// evaluations would re-run each of them every round).
    pub pre_commands: usize,
    /// Ascending-phase node evaluations.
    pub iterations: usize,
    /// The sparse fixpoint's pops by kind and in-edges read (zero for the
    /// dense engines).
    pub fix_work: FixWork,
    /// Number of abstract locations (Table 1's `AbsLocs`).
    pub num_locs: usize,
    /// Average `|D̂(c)|` (Table 2/3 column).
    pub avg_defs: f64,
    /// Average `|Û(c)|`.
    pub avg_uses: f64,
    /// Sizes of the interval def/use tables (zero for vanilla).
    pub defuse: crate::defuse::DefUseCounts,
    /// Dependency edges before the bypass optimization.
    pub dep_edges_raw: usize,
    /// Dependency edges actually used by the sparse engine.
    pub dep_edges: usize,
    /// Nodes entered by dependency generation's reaching-definition walks,
    /// and the definitions they started from (zero for the dense engines).
    pub dep_walk_visits: usize,
    /// See [`AnalysisStats::dep_walk_visits`].
    pub dep_walk_defs: usize,
    /// Widening strategy the run used (`""` when unset).
    pub widening: &'static str,
    /// Whether the fixpoint ran out of its analysis budget and finished in
    /// degraded (sound but less precise) mode.
    pub degraded: bool,
}

/// Deterministic work counts of one sparse solve ([`crate::sparse`]): pops
/// by kind (they sum to `iterations + narrowing_rounds`) and what the pops
/// read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FixWork {
    /// Pops answered by gathering every in-edge and running the transfer.
    pub whole: usize,
    /// Pops answered per dirty location, the transfer not run.
    pub forwarded: usize,
    /// Pops with nothing to compute, no dirty location being the command's
    /// to handle: the opening descending pop of every point off the cycles.
    pub skipped: usize,
    /// Locations the forwarded pops recomputed.
    pub forwarded_locs: usize,
    /// In-edges visited, by whole gathers and forwarded groups alike.
    pub edge_reads: usize,
}

impl FixWork {
    /// Every pop: `iterations + narrowing_rounds`.
    pub fn pops(&self) -> usize {
        self.whole + self.forwarded + self.skipped
    }
}

impl AnalysisStats {
    /// Records the pre-analysis' work counts.
    pub fn record_pre(&mut self, pre: &crate::preanalysis::PreAnalysis) {
        self.pre_rounds = pre.rounds;
        self.pre_evaluations = pre.evaluations;
        self.pre_commands = pre.commands;
    }

    /// Records the def/use tables: Table 2's `D̂(c)`/`Û(c)` columns and
    /// their sums.
    pub fn record_defuse(&mut self, du: &crate::defuse::DefUse) {
        self.num_locs = du.locs.len();
        self.avg_defs = du.avg_def_size();
        self.avg_uses = du.avg_use_size();
        self.defuse = du.counts();
    }

    /// `Dep` column, the paper's "pre-analysis and data dependency
    /// generation": the `pre`, `defuse` and `dep` stages.
    pub fn dep_phase(&self) -> Duration {
        [Stage::Pre, Stage::Defuse, Stage::Dep]
            .into_iter()
            .map(|s| self.times.get(s))
            .sum()
    }
}
