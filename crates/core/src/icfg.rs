//! The interprocedural control-flow graph shared by the dense engines.
//!
//! Nodes are the program's control points. Edges:
//!
//! * [`EdgeKind::Intra`] — ordinary CFG flow;
//! * [`EdgeKind::Call`] — call site → callee entry (argument binding);
//! * [`EdgeKind::Return`] — callee exit → the call's CFG successors
//!   (return-value binding); `vanilla` passes the whole exit state,
//!   `base` restricts it to the callee's accessed locations and joins with
//!   the caller's state at the call (access-based localization \[38\]);
//! * [`EdgeKind::ExternalRet`] — call → successor for calls whose targets
//!   are external: the return value becomes ⊤, no other effect (§6).
//!
//! Also computed here: worklist priorities (procedure-major, WTO-minor) and
//! the widening points (WTO component heads plus procedure entries, the
//! latter needed for recursion).
//!
//! Every table is indexed by [`Program::point_numbering`]: the edges are
//! compressed rows (each row in the order its edges were added, which the
//! dense worklist's pushes follow), priorities a `Vec`, widening points a
//! bit set.

use crate::preanalysis::PreAnalysis;
use sga_ir::{Cmd, Cp, PointNumbering, Program};
use sga_utils::graph::weak_topological_order;
use sga_utils::{BitSet, Idx, IndexVec, Rows};

/// The role of an ICFG edge, which selects its transfer function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// Plain intraprocedural flow.
    Intra,
    /// `site` → callee entry.
    Call {
        /// The call node.
        site: Cp,
    },
    /// Callee exit → return point of `site`.
    Return {
        /// The call node this return corresponds to.
        site: Cp,
    },
    /// `site` → return point, for external callees.
    ExternalRet {
        /// The call node.
        site: Cp,
    },
}

/// One incoming edge: the source control point and the edge role.
#[derive(Clone, Copy, Debug)]
pub struct InEdge {
    /// Source control point (whose post-state feeds the edge).
    pub src: Cp,
    /// Edge role.
    pub kind: EdgeKind,
}

/// The interprocedural CFG, its tables rows over
/// [`Program::point_numbering`].
#[derive(Debug)]
pub struct Icfg {
    num: PointNumbering,
    /// Incoming edges per point, in the order they were added.
    in_edges: Rows<InEdge>,
    /// Outgoing edge targets per point (for worklist pushes), in the order
    /// they were added.
    out_targets: Rows<Cp>,
    /// Worklist priority of each point (lower runs first); `u32::MAX` for
    /// the points of external procedures, which no engine queues.
    priority: Vec<u32>,
    /// Widening points: WTO heads and procedure entries.
    widen_points: BitSet,
}

impl Icfg {
    /// Builds the ICFG using the pre-analysis' resolved call graph.
    pub fn build(program: &Program, pre: &PreAnalysis) -> Icfg {
        let num = program.point_numbering();
        // `(row, item)` pairs in insertion order; each table is one
        // counting sort of its pairs, which keeps that order within a row.
        let mut in_edges: Vec<(usize, InEdge)> = Vec::new();
        let mut out_targets: Vec<(usize, Cp)> = Vec::new();
        let add = |in_edges: &mut Vec<(usize, InEdge)>,
                   out_targets: &mut Vec<(usize, Cp)>,
                   src: Cp,
                   dst: Cp,
                   kind: EdgeKind| {
            in_edges.push((num.index(dst), InEdge { src, kind }));
            out_targets.push((num.index(src), dst));
        };

        for (pid, proc) in program.procs.iter_enumerated() {
            if proc.is_external {
                continue;
            }
            for (nid, node) in proc.nodes.iter_enumerated() {
                let cp = Cp::new(pid, nid);
                if let Cmd::Call { .. } = &node.cmd {
                    let targets = pre.call_targets(cp);
                    let internal: Vec<_> = targets
                        .iter()
                        .copied()
                        .filter(|&t| !program.procs[t].is_external)
                        .collect();
                    let has_external = internal.len() < targets.len() || targets.is_empty();
                    for &t in &internal {
                        let callee = &program.procs[t];
                        let entry = Cp::new(t, callee.entry);
                        let exit = Cp::new(t, callee.exit);
                        let call = EdgeKind::Call { site: cp };
                        add(&mut in_edges, &mut out_targets, cp, entry, call);
                        for &r in proc.succs_of(nid) {
                            let ret_site = Cp::new(pid, r);
                            let ret = EdgeKind::Return { site: cp };
                            add(&mut in_edges, &mut out_targets, exit, ret_site, ret);
                            // The localized return join also reads the call
                            // site's state, so a change there must requeue
                            // the return site even without a direct edge.
                            out_targets.push((num.index(cp), ret_site));
                        }
                    }
                    if has_external {
                        for &r in proc.succs_of(nid) {
                            let ext = EdgeKind::ExternalRet { site: cp };
                            add(&mut in_edges, &mut out_targets, cp, Cp::new(pid, r), ext);
                        }
                    }
                } else {
                    for &s in proc.succs_of(nid) {
                        let intra = EdgeKind::Intra;
                        add(&mut in_edges, &mut out_targets, cp, Cp::new(pid, s), intra);
                    }
                }
            }
        }
        let in_edges = Rows::scatter(num.len(), in_edges.iter().copied());
        let out_targets = Rows::scatter(num.len(), out_targets.iter().copied());

        // Priorities and widening points from per-procedure WTOs.
        let mut priority = vec![u32::MAX; num.len()];
        let mut widen_points = BitSet::new(num.len());
        let mut widen = |cp: Cp| widen_points.insert(num.index(cp));
        // Call-site counts: a callee invoked from two or more sites closes
        // interprocedural ICFG cycles (exit → return-site₁ → … → site₂ →
        // entry) even when the call graph is acyclic; every such cycle
        // passes the callee's entry, so multi-site entries must widen.
        let mut site_count: IndexVec<sga_ir::ProcId, usize> =
            IndexVec::from_elem_n(0, program.procs.len());
        for targets in pre.callgraph.site_targets.values() {
            for &t in targets {
                site_count[t] += 1;
            }
        }
        for (pid, proc) in program.procs.iter_enumerated() {
            if proc.is_external {
                continue;
            }
            // Entries and exits widen for recursive procedures
            // (interprocedural cycles run through one or the other); entries
            // also widen for multi-site callees (see above). Single-site
            // non-recursive entries keep plain joins — widening there would
            // needlessly discard the argument binding.
            if pre.callgraph.is_recursive(pid) {
                widen(Cp::new(pid, proc.entry));
                widen(Cp::new(pid, proc.exit));
            }
            if site_count[pid] >= 2 {
                widen(Cp::new(pid, proc.entry));
            }
            let wto = weak_topological_order(&proc.cfg_view(), proc.entry.index());
            for h in wto.heads() {
                widen(Cp::new(pid, sga_ir::NodeId::new(h)));
            }
            let base = num.index(Cp::new(pid, proc.entry)) as u32;
            let first = num.index(Cp::new(pid, sga_ir::NodeId::new(0)));
            let rows = &mut priority[first..first + proc.nodes.len()];
            // Nodes outside the WTO (unreachable exits of infinite loops)
            // still need a priority.
            rows.fill(base + proc.nodes.len() as u32);
            for (rank, node) in wto.linearize().into_iter().enumerate() {
                rows[node] = base + rank as u32;
            }
        }

        Icfg {
            num,
            in_edges,
            out_targets,
            priority,
            widen_points,
        }
    }

    /// Incoming edges of `cp`.
    pub fn incoming(&self, cp: Cp) -> &[InEdge] {
        self.in_edges.row(self.num.index(cp))
    }

    /// Control points to re-queue after `cp` changes.
    pub fn targets(&self, cp: Cp) -> &[Cp] {
        self.out_targets.row(self.num.index(cp))
    }

    /// Worklist priority of `cp` (lower runs first): procedure-major,
    /// WTO-minor.
    pub fn priority(&self, cp: Cp) -> u32 {
        self.priority[self.num.index(cp)]
    }

    /// Whether `cp` is a widening point: a WTO head, or the entry (and
    /// exit) of a procedure that recursion or several call sites reach.
    pub fn is_widen_point(&self, cp: Cp) -> bool {
        self.widen_points.contains(self.num.index(cp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preanalysis;
    use sga_cfront::parse;

    fn build(src: &str) -> (Program, Icfg) {
        let p = parse(src).unwrap();
        let pre = preanalysis::run(&p);
        let icfg = Icfg::build(&p, &pre);
        (p, icfg)
    }

    #[test]
    fn call_edges_replace_fallthrough() {
        let (p, icfg) = build(
            "int f() { return 1; }
             int main() { int r = f(); return r; }",
        );
        let f = p.proc_by_name("f").unwrap();
        let f_entry = Cp::new(f, p.procs[f].entry);
        let f_exit = Cp::new(f, p.procs[f].exit);
        // f's entry has an incoming Call edge.
        assert!(icfg
            .incoming(f_entry)
            .iter()
            .any(|e| matches!(e.kind, EdgeKind::Call { .. })));
        // Some node in main has an incoming Return edge from f's exit.
        let has_ret = p.procs[p.main].nodes.indices().any(|n| {
            icfg.incoming(Cp::new(p.main, n))
                .iter()
                .any(|e| e.src == f_exit && matches!(e.kind, EdgeKind::Return { .. }))
        });
        assert!(has_ret);
    }

    #[test]
    fn external_calls_get_external_edges() {
        let (p, icfg) = build("int mystery(int); int main() { return mystery(1); }");
        let has_ext = p.procs[p.main].nodes.indices().any(|n| {
            icfg.incoming(Cp::new(p.main, n))
                .iter()
                .any(|e| matches!(e.kind, EdgeKind::ExternalRet { .. }))
        });
        assert!(has_ext);
    }

    #[test]
    fn loop_heads_are_widening_points() {
        let (p, icfg) = build("int main() { int i = 0; while (i < 5) i = i + 1; return i; }");
        // At least one non-entry widening point (the loop head).
        let entry = Cp::new(p.main, p.procs[p.main].entry);
        assert!(p
            .all_points()
            .any(|cp| cp != entry && icfg.is_widen_point(cp)));
    }

    #[test]
    fn priorities_are_total_over_points() {
        let (p, icfg) = build(
            "int f(int x) { return x; }
             int main() { for (;;) { if (f(1)) break; } return 0; }",
        );
        for cp in p.all_points() {
            if !p.procs[cp.proc].is_external {
                assert_ne!(icfg.priority(cp), u32::MAX, "no priority for {cp}");
            }
        }
    }
}
