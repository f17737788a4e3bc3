//! Per-phase measurements — the columns of Tables 2 and 3.

use std::time::Duration;

/// Timing/size statistics of one analyzer run.
#[derive(Clone, Debug, Default)]
pub struct AnalysisStats {
    /// Pre-analysis time (included in `dep` per the paper's accounting:
    /// "Dep includes times for pre-analysis and data dependency
    /// generation").
    pub pre_time: Duration,
    /// Dependency-generation time (def/use + reaching defs + bypass).
    /// Zero for the dense engines.
    pub dep_time: Duration,
    /// Fixpoint time (`Fix` column).
    pub fix_time: Duration,
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
    /// Dependency edges before the bypass optimization.
    pub dep_edges_raw: usize,
    /// Dependency edges actually used by the sparse engine.
    pub dep_edges: usize,
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
    /// Records the pre-analysis phase: its time and work counts.
    pub fn record_pre(&mut self, pre: &crate::preanalysis::PreAnalysis, time: Duration) {
        self.pre_time = time;
        self.pre_rounds = pre.rounds;
        self.pre_evaluations = pre.evaluations;
        self.pre_commands = pre.commands;
    }

    /// `Dep` column: pre-analysis + dependency construction.
    pub fn dep_phase(&self) -> Duration {
        self.pre_time + self.dep_time
    }
}
