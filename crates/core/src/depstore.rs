//! The dependency store the sparse solver runs over, and its worklist.
//!
//! The §5 dependency relation is a set of triples `(c_from, c_to, l)`.
//! [`crate::sparse::solve_with`] consumes it through the [`DepStore`]
//! trait, which couples the relation with worklist construction. The solver
//! reads every edge row exactly once — it resolves the rows into flat,
//! location-sorted arrays over the program's dense point numbering before
//! iterating — so what a store contributes to the inner loop is the
//! worklist, which speaks dense point indices. The product has one store,
//! [`CsrDeps`]: the [`DataDeps`] relation behind a flat topologically-ordered
//! worklist (a pending bitset plus a backward-resettable cursor over
//! precomputed priority slots), over every point the solver can evaluate
//! or over a subset of them ([`CsrDeps::over`]) — the worklist's points are
//! the ones the solver seeds. The trait is the seam test harnesses plug
//! into (`sparse::tests::Watched`, and the reference below).
//!
//! **Pop order is part of the answer.** The delayed-widening counter makes
//! the fixpoint sensitive to pop order, so the flat worklist pops exactly
//! the point a `BTreeSet` keyed on `((topo_rank, icfg_priority), cp)` would:
//! its slots are the sorted positions of that total order, a pending bit
//! stands for set membership, and the cursor scan returns the minimum
//! pending slot. The `BTreeSet` worklist itself lives on as the
//! `#[cfg(test)]` module `reference` (`impl DepStore for DataDeps`) that
//! `tests::worklists_pop_identically` and
//! `sparse::differential::flat_worklist_replays_the_btreeset_reference`
//! compare against.

use crate::depgen::DataDeps;
use crate::icfg::Icfg;
use sga_ir::{Cp, Program};
use sga_utils::BitSet;

/// The one dependency store there is. Nothing reads a value of this type:
/// it remains, with the option fields that hold one, only because the frozen
/// benchmark harness (`crates/bench/src/bin/benchmark/traced.rs`) names them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DepBackend {
    /// [`CsrDeps`].
    #[default]
    Csr,
}

/// A dependency representation the sparse solver can iterate: the edge
/// relation plus the worklist that orders the evaluation of its points.
///
/// The solver resolves the relation once per solve into flat rows of its
/// own (sorted by *location*, which only the analysis instance can order,
/// and addressed by dense point index) and takes the widening points from
/// [`DataDeps::cycle_nodes`]; what a store decides is how the pending
/// set is kept.
pub trait DepStore {
    /// The §2.6 relation: per-point `(loc id, peer)` rows in ascending
    /// `(loc id, peer)` order — same-location values are joined in that
    /// order — and the points on dependency cycles.
    fn relation(&self) -> &DataDeps;
    /// Builds this store's (empty) worklist over `program`'s dense point
    /// numbering; the solver seeds it.
    fn make_worklist<'a>(&'a self, program: &Program, icfg: &Icfg) -> Box<dyn Worklist + 'a>;
}

/// A sparse-solver worklist over dense point indices
/// ([`Program::point_numbering`], which is ascending in `Cp`). `pop` must
/// return the pending point that is minimal in
/// `((topo_rank, icfg_priority), cp)` order — the fixpoint's
/// delayed-widening counts depend on it, so every implementation must agree
/// or the answers drift apart.
pub trait Worklist {
    /// The points this worklist orders, as dense indices: the only points
    /// it may be handed, and the ones the solver seeds both phases with.
    fn points(&self) -> &[u32];
    /// Marks `point` pending (idempotent).
    fn push(&mut self, point: usize);
    /// Removes and returns the minimal pending point.
    fn pop(&mut self) -> Option<usize>;
}

/// The points the solver evaluates: every point of a non-external procedure.
pub(crate) fn solved_points(program: &Program) -> impl Iterator<Item = Cp> + '_ {
    program
        .all_points()
        .filter(|cp| !program.procs[cp.proc].is_external)
}

/// Worklist priority: dependency-graph topological rank (producers first),
/// with the ICFG priority as a deterministic tiebreak for nodes outside
/// the dependency graph.
fn priority(deps: &DataDeps, icfg: &Icfg, cp: Cp) -> (u32, u32) {
    let rank = deps.topo_rank.get(&cp).copied().unwrap_or(0);
    (rank, icfg.priority[&cp])
}

/// [`DataDeps`] plus the flat worklist's precomputed slot order. (The name
/// is historical — it used to own a CSR copy of the edge rows; the solver
/// now resolves its own.)
pub struct CsrDeps<'d> {
    deps: &'d DataDeps,
    /// Dense point index → flat-worklist slot; `u32::MAX` for points that
    /// are never queued (external procedures, points outside the subset).
    slot_of: Vec<u32>,
    /// Inverse of `slot_of`: the dense index of the point each slot stands
    /// for, in ascending `((topo_rank, icfg_priority), cp)` order.
    point_by_slot: Vec<u32>,
}

impl<'d> CsrDeps<'d> {
    /// Precomputes the flat-worklist slot order over `deps` for every point
    /// of a non-external procedure.
    pub fn build(program: &Program, icfg: &Icfg, deps: &'d DataDeps) -> CsrDeps<'d> {
        CsrDeps::over(program, icfg, deps, solved_points(program))
    }

    /// [`CsrDeps::build`] over a subset: the solver seeds and visits only
    /// `points` (distinct), which must hold every point `deps` names — a
    /// pop requeues the users of what it changed.
    pub(crate) fn over(
        program: &Program,
        icfg: &Icfg,
        deps: &'d DataDeps,
        points: impl IntoIterator<Item = Cp>,
    ) -> CsrDeps<'d> {
        let num = program.point_numbering();
        // Each key is built once; the keys are distinct, so the unstable sort
        // is the total order.
        let mut order: Vec<((u32, u32), Cp)> = points
            .into_iter()
            .map(|cp| (priority(deps, icfg, cp), cp))
            .collect();
        order.sort_unstable();
        let point_by_slot: Vec<u32> = order.iter().map(|&(_, cp)| num.index(cp) as u32).collect();
        let mut slot_of = vec![u32::MAX; num.len()];
        for (slot, &point) in point_by_slot.iter().enumerate() {
            slot_of[point as usize] = slot as u32;
        }
        CsrDeps {
            deps,
            slot_of,
            point_by_slot,
        }
    }
}

impl DepStore for CsrDeps<'_> {
    fn relation(&self) -> &DataDeps {
        self.deps
    }

    fn make_worklist<'a>(&'a self, _program: &Program, _icfg: &Icfg) -> Box<dyn Worklist + 'a> {
        Box::new(FlatWorklist {
            deps: self,
            pending: BitSet::new(self.point_by_slot.len()),
            cursor: 0,
        })
    }
}

/// The flat worklist: pending bits over precomputed priority slots, popped
/// by a forward bit scan from a cursor that pushes can move backward.
struct FlatWorklist<'a> {
    deps: &'a CsrDeps<'a>,
    pending: BitSet,
    cursor: usize,
}

impl Worklist for FlatWorklist<'_> {
    fn points(&self) -> &[u32] {
        &self.deps.point_by_slot
    }

    fn push(&mut self, point: usize) {
        let slot = self.deps.slot_of[point];
        debug_assert_ne!(
            slot,
            u32::MAX,
            "queued point {point}, which the store does not order"
        );
        let slot = slot as usize;
        self.pending.insert(slot);
        if slot < self.cursor {
            self.cursor = slot;
        }
    }

    fn pop(&mut self) -> Option<usize> {
        let slot = self.pending.next_set_from(self.cursor)?;
        self.pending.remove(slot);
        self.cursor = slot;
        Some(self.deps.point_by_slot[slot] as usize)
    }
}

/// The pop-order reference: [`DataDeps`] as a store of its own, iterated
/// through the original ordered worklist, a `BTreeSet` of
/// `(priority, point)`.
#[cfg(test)]
mod reference {
    use super::*;
    use std::collections::BTreeSet;

    impl DepStore for DataDeps {
        fn relation(&self) -> &DataDeps {
            self
        }

        fn make_worklist<'a>(&'a self, program: &Program, icfg: &Icfg) -> Box<dyn Worklist + 'a> {
            let num = program.point_numbering();
            let mut prio = vec![(0, 0); num.len()];
            let mut points = Vec::new();
            for cp in solved_points(program) {
                prio[num.index(cp)] = priority(self, icfg, cp);
                points.push(num.index(cp) as u32);
            }
            Box::new(BTreeWorklist {
                set: BTreeSet::new(),
                prio,
                points,
            })
        }
    }

    struct BTreeWorklist {
        set: BTreeSet<((u32, u32), usize)>,
        prio: Vec<(u32, u32)>,
        points: Vec<u32>,
    }

    impl Worklist for BTreeWorklist {
        fn points(&self) -> &[u32] {
            &self.points
        }

        fn push(&mut self, point: usize) {
            self.set.insert((self.prio[point], point));
        }

        fn pop(&mut self) -> Option<usize> {
            self.set.pop_first().map(|(_, point)| point)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{defuse, depgen, preanalysis};
    use proptest::prelude::*;
    use sga_cfront::parse;

    const LOOPY: &str = r#"
        int g;
        int helper(int x) {
            int y;
            y = x + 1;
            g = g + y;
            return y;
        }
        int main() {
            int i;
            i = 0;
            while (i < 10) {
                i = helper(i);
            }
            return g;
        }
    "#;

    fn build_both(src: &str) -> (sga_ir::Program, Icfg, DataDeps) {
        let program = parse(src).unwrap();
        let pre = preanalysis::run(&program);
        let icfg = Icfg::build(&program, &pre);
        let du = defuse::compute(&program, &pre);
        let deps = depgen::generate(&program, &pre, &du, depgen::DepGenOptions::default());
        (program, icfg, deps)
    }

    proptest! {
        /// The flat worklist and the BTreeSet worklist agree on every pop
        /// under an arbitrary interleaving of pushes and pops.
        #[test]
        fn worklists_pop_identically(ops in prop::collection::vec((0usize..64, any::<bool>()), 1..80)) {
            let (program, icfg, deps) = build_both(LOOPY);
            let csr = CsrDeps::build(&program, &icfg, &deps);
            let num = program.point_numbering();
            let all_points: Vec<usize> = solved_points(&program).map(|cp| num.index(cp)).collect();
            let mut a = deps.make_worklist(&program, &icfg);
            let mut b = csr.make_worklist(&program, &icfg);
            for (i, push) in ops {
                if push {
                    let point = all_points[i % all_points.len()];
                    a.push(point);
                    b.push(point);
                } else {
                    prop_assert_eq!(a.pop(), b.pop());
                }
            }
            loop {
                let (x, y) = (a.pop(), b.pop());
                prop_assert_eq!(x, y);
                if x.is_none() {
                    break;
                }
            }
        }
    }
}
