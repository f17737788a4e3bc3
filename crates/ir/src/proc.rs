//! Procedures: one-command-per-node control-flow graphs.

use crate::expr::Cmd;
use crate::program::VarId;
use sga_utils::graph::DiGraph;
use sga_utils::{new_index, IndexVec};

new_index!(pub struct ProcId, "p");
new_index!(pub struct NodeId, "n");

/// One CFG node — a control point carrying a single command.
#[derive(Clone, Debug)]
pub struct Node {
    /// The command executed at this point.
    pub cmd: Cmd,
    /// Source line, for diagnostics (0 when synthetic).
    pub line: u32,
}

/// A procedure: its signature and its control-flow graph.
#[derive(Clone, Debug)]
pub struct Proc {
    /// Source-level name.
    pub name: String,
    /// Formal parameters, in order.
    pub params: Vec<VarId>,
    /// Declared locals and temporaries.
    pub locals: Vec<VarId>,
    /// Synthetic variable receiving `return e` values.
    pub ret_var: VarId,
    /// The nodes (control points).
    pub nodes: IndexVec<NodeId, Node>,
    /// Forward edges.
    pub succs: IndexVec<NodeId, Vec<NodeId>>,
    /// Backward edges (kept in sync by the builder).
    pub preds: IndexVec<NodeId, Vec<NodeId>>,
    /// Entry point (a `Skip` node).
    pub entry: NodeId,
    /// Exit point (a `Skip` node every `return` jumps to).
    pub exit: NodeId,
    /// Whether the procedure body is unknown (external/library): the analysis
    /// treats calls to it as returning ⊤ with no side effects (§6).
    pub is_external: bool,
}

impl Proc {
    /// Successors of `n`.
    pub fn succs_of(&self, n: NodeId) -> &[NodeId] {
        &self.succs[n]
    }

    /// Predecessors of `n`.
    pub fn preds_of(&self, n: NodeId) -> &[NodeId] {
        &self.preds[n]
    }

    /// Number of control points.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// A [`DiGraph`] view of the CFG for the graph algorithms.
    pub fn cfg_view(&self) -> CfgView<'_> {
        CfgView { proc: self }
    }

    /// Counts *basic blocks*: maximal straight-line chains. Used for the
    /// `Blocks` column of Table 1.
    pub fn num_basic_blocks(&self) -> usize {
        if self.nodes.is_empty() {
            return 0;
        }
        let mut leaders = 0usize;
        for n in self.nodes.indices() {
            let preds = self.preds_of(n);
            let is_leader =
                n == self.entry || preds.len() != 1 || self.succs_of(preds[0]).len() != 1;
            if is_leader {
                leaders += 1;
            }
        }
        leaders
    }
}

/// Borrowed [`DiGraph`] adapter over a procedure CFG.
#[derive(Clone, Copy, Debug)]
pub struct CfgView<'a> {
    proc: &'a Proc,
}

impl DiGraph for CfgView<'_> {
    fn num_nodes(&self) -> usize {
        self.proc.nodes.len()
    }
    fn successors(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        self.proc.succs[NodeId(node as u32)]
            .iter()
            .map(|n| n.0 as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProcBuilder;
    use crate::expr::{Cmd, Expr, LVal};
    use sga_utils::graph::reverse_postorder;
    use sga_utils::Idx;

    fn linear_proc() -> Proc {
        let mut b = ProcBuilder::new("f", VarId::new(0));
        let n1 = b.node(Cmd::Assign(LVal::Var(VarId::new(1)), Expr::Const(1)));
        let n2 = b.node(Cmd::Assign(LVal::Var(VarId::new(2)), Expr::Const(2)));
        b.edge(b.entry(), n1);
        b.edge(n1, n2);
        b.edge(n2, b.exit());
        b.finish()
    }

    #[test]
    fn preds_mirror_succs() {
        let p = linear_proc();
        for n in p.nodes.indices() {
            for &s in p.succs_of(n) {
                assert!(p.preds_of(s).contains(&n));
            }
        }
    }

    #[test]
    fn linear_chain_is_one_block() {
        let p = linear_proc();
        // entry..exit is one straight line => 1 leader (entry).
        assert_eq!(p.num_basic_blocks(), 1);
        let rpo = reverse_postorder(&p.cfg_view(), p.entry.index());
        assert_eq!(rpo.len(), p.num_nodes());
    }
}
