//! Call graphs over the IR.
//!
//! Two flavours are needed:
//!
//! * the *syntactic* call graph (direct calls only), available before any
//!   analysis — enough for Table 1's `maxSCC` column when a program has no
//!   function pointers;
//! * the *resolved* call graph, where indirect calls are closed using a
//!   points-to result. The analysis crate builds this one by passing the
//!   pre-analysis' function-pointer targets into [`CallGraph::build`]
//!   (§5: "we use the flow-insensitive analysis to prior resolve function
//!   pointers").

use crate::expr::{Callee, Cmd};
use crate::proc::ProcId;
use crate::program::{Cp, Program};
use sga_utils::graph::Scc;
use sga_utils::{FxHashMap, FxHashSet, Idx, IndexVec, Rows};

/// A call graph: per-procedure callee sets plus call-site resolution.
#[derive(Clone, Debug)]
pub struct CallGraph {
    /// Callees of each procedure (deduplicated, deterministic order).
    pub callees: IndexVec<ProcId, Vec<ProcId>>,
    /// Callers of each procedure.
    pub callers: IndexVec<ProcId, Vec<ProcId>>,
    /// Resolved targets of every call site.
    pub site_targets: FxHashMap<Cp, Vec<ProcId>>,
    /// SCC decomposition (components in reverse topological order:
    /// callees before callers).
    pub scc: Scc,
}

impl CallGraph {
    /// Builds the call graph. `resolve_indirect` maps an indirect call site
    /// to its possible targets; pass a closure returning `&[]`-equivalent for
    /// the syntactic graph.
    pub fn build(
        program: &Program,
        mut resolve_indirect: impl FnMut(Cp) -> Vec<ProcId>,
    ) -> CallGraph {
        let n = program.procs.len();
        let mut callee_sets: IndexVec<ProcId, FxHashSet<ProcId>> =
            IndexVec::from_elem_n(FxHashSet::default(), n);
        let mut site_targets: FxHashMap<Cp, Vec<ProcId>> = FxHashMap::default();

        for (pid, proc) in program.procs.iter_enumerated() {
            for (nid, node) in proc.nodes.iter_enumerated() {
                if let Cmd::Call { callee, .. } = &node.cmd {
                    let cp = Cp::new(pid, nid);
                    let mut targets = match callee {
                        Callee::Direct(t) => vec![*t],
                        Callee::Indirect(_) => resolve_indirect(cp),
                    };
                    targets.sort_unstable();
                    targets.dedup();
                    for &t in &targets {
                        callee_sets[pid].insert(t);
                    }
                    site_targets.insert(cp, targets);
                }
            }
        }

        let mut graph: Rows<u32> = Rows::default();
        let mut callees: IndexVec<ProcId, Vec<ProcId>> = IndexVec::with_capacity(n);
        let mut callers: IndexVec<ProcId, Vec<ProcId>> = IndexVec::from_elem_n(Vec::new(), n);
        for pid in program.procs.indices() {
            let mut cs: Vec<ProcId> = callee_sets[pid].iter().copied().collect();
            cs.sort_unstable();
            for &c in &cs {
                callers[c].push(pid);
            }
            graph.push_row(cs.iter().map(|c| c.index() as u32));
            callees.push(cs);
        }
        let scc = Scc::compute(&graph);
        CallGraph {
            callees,
            callers,
            site_targets,
            scc,
        }
    }

    /// Builds the syntactic (direct-calls-only) call graph.
    pub fn syntactic(program: &Program) -> CallGraph {
        Self::build(program, |_| Vec::new())
    }

    /// Size of the largest SCC — Table 1's `maxSCC`.
    pub fn max_scc_size(&self) -> usize {
        self.scc.max_component_size()
    }

    /// Whether `p` participates in recursion (an SCC of size > 1, or a
    /// direct self-call).
    pub fn is_recursive(&self, p: ProcId) -> bool {
        self.scc.in_cycle(p.index()) || self.callees[p].contains(&p)
    }

    /// Procedures in bottom-up order (callees before callers), SCCs
    /// flattened. This is the summary-computation order used by the
    /// dependency generator.
    pub fn bottom_up_sccs(&self) -> impl ExactSizeIterator<Item = &[usize]> + '_ {
        self.scc.components.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProcBuilder;
    use crate::expr::Callee;
    use crate::program::{FieldTable, VarInfo, VarKind};
    use sga_utils::IndexVec;

    /// Builds `main -> f -> g -> f` (f,g recursive) with g also calling h.
    fn sample_program() -> Program {
        let mut vars: IndexVec<crate::program::VarId, VarInfo> = IndexVec::new();
        let mut mk_proc = |name: &str, id: usize, callees: Vec<usize>| {
            let ret = vars.push(VarInfo {
                name: format!("__ret_{name}"),
                kind: VarKind::Return(ProcId::new(id)),
                address_taken: false,
            });
            let mut b = ProcBuilder::new(name, ret);
            let mut cur = b.entry();
            for c in callees {
                let n = b.node(Cmd::Call {
                    ret: None,
                    callee: Callee::Direct(ProcId::new(c)),
                    args: vec![],
                });
                b.edge(cur, n);
                cur = n;
            }
            let exit = b.exit();
            b.edge(cur, exit);
            b.finish()
        };
        let main = mk_proc("main", 0, vec![1]);
        let f = mk_proc("f", 1, vec![2]);
        let g = mk_proc("g", 2, vec![1, 3]);
        let h = mk_proc("h", 3, vec![]);
        let mut procs = IndexVec::new();
        let main_id = procs.push(main);
        procs.push(f);
        procs.push(g);
        procs.push(h);
        Program {
            procs,
            vars,
            fields: FieldTable::new().into_names(),
            main: main_id,
        }
    }

    #[test]
    fn detects_recursion_cycle() {
        let program = sample_program();
        let cg = CallGraph::syntactic(&program);
        assert_eq!(cg.max_scc_size(), 2);
        assert!(cg.is_recursive(ProcId::new(1)));
        assert!(cg.is_recursive(ProcId::new(2)));
        assert!(!cg.is_recursive(ProcId::new(0)));
        assert!(!cg.is_recursive(ProcId::new(3)));
    }

    #[test]
    fn callers_inverse_of_callees() {
        let program = sample_program();
        let cg = CallGraph::syntactic(&program);
        for pid in program.procs.indices() {
            for &c in &cg.callees[pid] {
                assert!(cg.callers[c].contains(&pid));
            }
        }
    }

    #[test]
    fn bottom_up_order_puts_leaf_first() {
        let program = sample_program();
        let cg = CallGraph::syntactic(&program);
        let order: Vec<&[usize]> = cg.bottom_up_sccs().collect();
        let pos = |p: usize| order.iter().position(|c| c.contains(&p)).unwrap();
        assert!(pos(3) < pos(1), "h before the f-g cycle");
        assert!(pos(1) < pos(0), "cycle before main");
    }
}
