//! Graph algorithms used by the CFG and call-graph layers.
//!
//! * [`Scc`] — Tarjan's strongly-connected-components algorithm. The paper's
//!   Table 1 reports `maxSCC` of the call graph, and §5 explains why large
//!   call-graph SCCs dominate analysis cost; we need the same measurement.
//! * [`reverse_postorder`] — the iteration order for dense worklists.
//! * [`WtoItem`]/[`weak_topological_order`] — Bourdoncle's weak topological
//!   order; its component heads are exactly the widening points of both the
//!   dense and sparse fixpoint engines.
//!
//! Every traversal is iterative — explicit frames on the heap, so a long
//! procedure or a deep loop nest cannot overflow the thread's stack — and
//! keeps each frame's successors as the graph's borrowed iterator
//! ([`DiGraph::successors`]): a node visit allocates nothing.

use crate::bitset::BitSet;
use crate::rows::Rows;

/// A read-only view of a directed graph with nodes `0..num_nodes`.
pub trait DiGraph {
    /// Number of nodes; node ids are `0..num_nodes()`.
    fn num_nodes(&self) -> usize;
    /// Successors of `node`, in the graph's order, borrowed from the graph.
    fn successors(&self, node: usize) -> impl Iterator<Item = usize> + '_;
}

/// Rows as a graph, the default [`DiGraph`]: row `v` holds `v`'s successors.
impl DiGraph for Rows<u32> {
    fn num_nodes(&self) -> usize {
        self.len()
    }
    fn successors(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(node).iter().map(|&w| w as usize)
    }
}

/// The strongly connected components of a graph, in reverse topological
/// order (callees before callers when applied to a call graph).
#[derive(Clone, Debug)]
pub struct Scc {
    /// `component[v]` is the id of `v`'s SCC.
    pub component: Vec<usize>,
    /// Members of each SCC: row `i` lists the nodes of SCC `i`, in the
    /// order Tarjan's stack hands them out (the root last).
    pub components: Rows<usize>,
}

impl Scc {
    /// Computes SCCs with an iterative Tarjan traversal.
    pub fn compute(graph: &impl DiGraph) -> Scc {
        let n = graph.num_nodes();
        const UNSET: usize = usize::MAX;
        let mut index = vec![UNSET; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut component = vec![UNSET; n];
        let mut components = Rows::default();
        let mut counter = 0usize;

        // Explicit DFS frames: (node, its successors not yet looked at).
        let mut frames = Vec::new();

        for root in 0..n {
            if index[root] != UNSET {
                continue;
            }
            index[root] = counter;
            lowlink[root] = counter;
            counter += 1;
            stack.push(root);
            on_stack[root] = true;
            frames.push((root, graph.successors(root)));

            while let Some((v, succs)) = frames.last_mut() {
                let v = *v;
                if let Some(w) = succs.next() {
                    if index[w] == UNSET {
                        index[w] = counter;
                        lowlink[w] = counter;
                        counter += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        frames.push((w, graph.successors(w)));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                } else {
                    frames.pop();
                    if let Some((p, _)) = frames.last() {
                        lowlink[*p] = lowlink[*p].min(lowlink[v]);
                    }
                    if lowlink[v] == index[v] {
                        let id = components.len();
                        let root_at = stack.iter().rposition(|&w| w == v);
                        let members = &stack[root_at.expect("tarjan stack underflow")..];
                        for &w in members {
                            on_stack[w] = false;
                            component[w] = id;
                        }
                        components.push_row(members.iter().rev().copied());
                        stack.truncate(stack.len() - members.len());
                    }
                }
            }
        }
        Scc {
            component,
            components,
        }
    }

    /// Number of SCCs.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether the graph was empty.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Size of the largest component (the paper's `maxSCC` column).
    pub fn max_component_size(&self) -> usize {
        self.components
            .iter()
            .map(<[usize]>::len)
            .max()
            .unwrap_or(0)
    }

    /// Whether `v` belongs to a nontrivial cycle (an SCC of size > 1, or a
    /// self-loop detected by the caller).
    pub fn in_cycle(&self, v: usize) -> bool {
        self.components.row(self.component[v]).len() > 1
    }
}

/// Reverse postorder of the nodes reachable from `entry`.
pub fn reverse_postorder(graph: &impl DiGraph, entry: usize) -> Vec<usize> {
    let n = graph.num_nodes();
    let mut visited = BitSet::new(n.max(1));
    let mut post: Vec<usize> = Vec::new();
    if n == 0 {
        return post;
    }
    // Frame: (node, its successors not yet looked at).
    let mut frames = vec![(entry, graph.successors(entry))];
    visited.insert(entry);
    while let Some((v, succs)) = frames.last_mut() {
        let v = *v;
        match succs.next() {
            Some(w) => {
                if visited.insert(w) {
                    frames.push((w, graph.successors(w)));
                }
            }
            None => {
                post.push(v);
                frames.pop();
            }
        }
    }
    post.reverse();
    post
}

/// One element of a weak topological order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WtoItem {
    /// A node outside any cycle.
    Node(usize),
    /// A cycle: the head (widening point) followed by the body in WTO order.
    Component(usize, Vec<WtoItem>),
}

impl WtoItem {
    /// Every node of the item in WTO order: a component's head, then its
    /// body's nodes, nested components' included.
    pub fn nodes(&self) -> Vec<usize> {
        let mut out = Vec::new();
        push_nodes(std::slice::from_ref(self), false, &mut out);
        out
    }
}

/// The nodes of `items` in WTO order — only the component heads if
/// `heads_only` — walked with an explicit stack.
fn push_nodes(items: &[WtoItem], heads_only: bool, out: &mut Vec<usize>) {
    let mut stack = vec![items.iter()];
    while let Some(top) = stack.last_mut() {
        match top.next() {
            None => {
                stack.pop();
            }
            Some(WtoItem::Node(v)) => {
                if !heads_only {
                    out.push(*v);
                }
            }
            Some(WtoItem::Component(h, body)) => {
                out.push(*h);
                stack.push(body.iter());
            }
        }
    }
}

/// A weak topological order (Bourdoncle 1993) of the nodes reachable from an
/// entry node.
#[derive(Clone, Debug, Default)]
pub struct Wto {
    /// Top-level WTO items in order.
    pub items: Vec<WtoItem>,
}

impl Wto {
    /// All component heads — the widening points.
    pub fn heads(&self) -> Vec<usize> {
        let mut out = Vec::new();
        push_nodes(&self.items, true, &mut out);
        out
    }

    /// All nodes in WTO order (heads before their bodies).
    pub fn linearize(&self) -> Vec<usize> {
        let mut out = Vec::new();
        push_nodes(&self.items, false, &mut out);
        out
    }
}

/// Dismantles the nest item by item, so a deep loop nest is not dropped by
/// one recursive call per level.
impl Drop for Wto {
    fn drop(&mut self) {
        let mut stack = std::mem::take(&mut self.items);
        while let Some(item) = stack.pop() {
            if let WtoItem::Component(_, body) = item {
                stack.extend(body);
            }
        }
    }
}

/// Computes a weak topological order using Bourdoncle's recursive-strategy
/// algorithm (hierarchical Tarjan).
///
/// Self-loops make their node a component head, as required for widening.
///
/// The recursion of `visit` and `component` runs on explicit frames, in the
/// recursive algorithm's order. Every write to a partition is a front insert
/// there; here each partition is pushed to and reversed once, when it
/// closes.
pub fn weak_topological_order(graph: &impl DiGraph, entry: usize) -> Wto {
    const UNVISITED: usize = 0;
    const DONE: usize = usize::MAX;

    /// A suspended call: `visit(v)` with its running `head` and whether it
    /// found a loop, or `component(v)`, which returns `head` when it ends.
    enum Frame<I> {
        Visit {
            v: usize,
            succs: I,
            head: usize,
            loop_found: bool,
        },
        Component {
            v: usize,
            succs: I,
            head: usize,
        },
    }

    let n = graph.num_nodes();
    let mut dfn = vec![UNVISITED; n];
    let mut num = 0;
    let mut stack: Vec<usize> = Vec::new();
    // The partitions being built: the top level, then one per open component.
    let mut partitions: Vec<Vec<WtoItem>> = vec![Vec::new()];
    let mut frames = Vec::new();
    // `visit(v)`'s prologue.
    let mut enter = |v: usize, dfn: &mut Vec<usize>, stack: &mut Vec<usize>| {
        stack.push(v);
        num += 1;
        dfn[v] = num;
        Frame::Visit {
            v,
            succs: graph.successors(v),
            head: num,
            loop_found: false,
        }
    };
    if n > 0 {
        frames.push(enter(entry, &mut dfn, &mut stack));
    }
    while let Some(frame) = frames.last_mut() {
        // What the frame on top hands back to its caller when it ends.
        let returned = match frame {
            Frame::Visit {
                v,
                succs,
                head,
                loop_found,
            } => {
                if let Some(w) = succs.next() {
                    if dfn[w] == UNVISITED {
                        let callee = enter(w, &mut dfn, &mut stack);
                        frames.push(callee);
                    } else if dfn[w] != DONE && dfn[w] <= *head {
                        *head = dfn[w];
                        *loop_found = true;
                    }
                    continue;
                }
                let (v, head) = (*v, *head);
                if head == dfn[v] {
                    dfn[v] = DONE;
                    let mut element = stack.pop().expect("wto stack underflow");
                    if *loop_found {
                        while element != v {
                            dfn[element] = UNVISITED;
                            element = stack.pop().expect("wto stack underflow");
                        }
                        // `visit(v)` ends in `component(v)`, whose result it
                        // returns.
                        partitions.push(Vec::new());
                        *frame = Frame::Component {
                            v,
                            succs: graph.successors(v),
                            head,
                        };
                        continue;
                    }
                    partitions
                        .last_mut()
                        .expect("open partition")
                        .push(WtoItem::Node(v));
                }
                head
            }
            Frame::Component { v, succs, head } => {
                if let Some(w) = succs.next() {
                    if dfn[w] == UNVISITED {
                        let callee = enter(w, &mut dfn, &mut stack);
                        frames.push(callee);
                    }
                    continue;
                }
                let (v, head) = (*v, *head);
                let mut body = partitions.pop().expect("open component");
                body.reverse();
                let outer = partitions.last_mut().expect("open partition");
                outer.push(WtoItem::Component(v, body));
                head
            }
        };
        frames.pop();
        // A `visit` called from a `component` has its result ignored.
        if let Some(Frame::Visit {
            head, loop_found, ..
        }) = frames.last_mut()
        {
            if returned <= *head {
                *head = returned;
                *loop_found = true;
            }
        }
    }
    let mut items = partitions.pop().expect("top-level partition");
    items.reverse();
    Wto { items }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` nodes, each one's successors in the order `edges` lists them.
    fn graph(n: usize, edges: &[(usize, usize)]) -> Rows<u32> {
        Rows::scatter(n, edges.iter().map(|&(a, b)| (a, b as u32)))
    }

    fn diamond() -> Rows<u32> {
        graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn scc_of_dag_is_singletons() {
        let scc = Scc::compute(&diamond());
        assert_eq!(scc.len(), 4);
        assert_eq!(scc.max_component_size(), 1);
        assert!(!scc.in_cycle(0));
    }

    #[test]
    fn scc_finds_cycle() {
        // 0 -> 1 -> 2 -> 0, 2 -> 3
        let scc = Scc::compute(&graph(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]));
        assert_eq!(scc.max_component_size(), 3);
        assert_eq!(scc.component[0], scc.component[1]);
        assert_eq!(scc.component[1], scc.component[2]);
        assert_ne!(scc.component[2], scc.component[3]);
        // Reverse topological: node 3's component comes before the cycle.
        assert!(scc.component[3] < scc.component[0]);
        assert!(scc.in_cycle(0));
        assert!(!scc.in_cycle(3));
    }

    #[test]
    fn rpo_of_diamond_starts_at_entry_ends_at_exit() {
        let rpo = reverse_postorder(&diamond(), 0);
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], 0);
        assert_eq!(rpo[3], 3);
    }

    #[test]
    fn rpo_skips_unreachable() {
        let rpo = reverse_postorder(&graph(3, &[(0, 1)]), 0);
        assert_eq!(rpo, vec![0, 1]);
    }

    #[test]
    fn wto_of_loop_marks_head() {
        // 0 -> 1 -> 2 -> 1, 2 -> 3  (while loop)
        let wto = weak_topological_order(&graph(4, &[(0, 1), (1, 2), (2, 1), (2, 3)]), 0);
        assert_eq!(wto.heads(), vec![1]);
        assert_eq!(wto.linearize(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn wto_nested_loops() {
        // 0 -> 1 -> 2 -> 3 -> 2 (inner), 3 -> 1 (outer), 3 -> 4
        let g = graph(5, &[(0, 1), (1, 2), (2, 3), (3, 2), (3, 1), (3, 4)]);
        let wto = weak_topological_order(&g, 0);
        let mut heads = wto.heads();
        heads.sort_unstable();
        assert_eq!(heads, vec![1, 2]);
    }

    #[test]
    fn scc_empty_graph() {
        let scc = Scc::compute(&graph(0, &[]));
        assert!(scc.is_empty());
        assert_eq!(scc.max_component_size(), 0);
    }

    /// A 200k-node path exercises the iterative traversals, on a thread
    /// with a 256 KiB stack.
    #[test]
    fn scc_large_path_does_not_overflow() {
        on_small_stack(|| {
            let n = 200_000;
            let chain = graph(n, &(1..n).map(|i| (i - 1, i)).collect::<Vec<_>>());
            let wto = weak_topological_order(&chain, 0);
            assert_eq!(wto.items.len(), n);
            assert_eq!(wto.linearize(), (0..n).collect::<Vec<_>>());
            assert_eq!(reverse_postorder(&chain, 0).len(), n);
            assert_eq!(Scc::compute(&chain).len(), n);
        });
    }

    fn components(scc: &Scc) -> Vec<Vec<usize>> {
        scc.components.iter().map(<[usize]>::to_vec).collect()
    }

    /// The orders the fixpoint engines' priorities, widening points and
    /// `topo_rank` come from, pinned literally: each expected value was
    /// printed by the recursive WTO and the `Vec`-per-visit traversals
    /// these replaced.
    #[test]
    fn traversal_orders_are_pinned() {
        use WtoItem::{Component as C, Node as N};
        // Two nested loops (1..4 around 2..3, with a branch 2 → 6 → 3), a
        // loop 7 ⇄ 8 entered from both 4 and 5.
        let nested = graph(
            9,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (2, 6),
                (6, 3),
                (3, 2),
                (3, 4),
                (4, 1),
                (1, 5),
                (5, 7),
                (7, 8),
                (8, 7),
                (4, 8),
            ],
        );
        let wto = weak_topological_order(&nested, 0);
        assert_eq!(
            wto.items,
            [
                N(0),
                C(1, vec![C(2, vec![N(6), N(3)]), N(4)]),
                N(5),
                C(8, vec![N(7)])
            ]
        );
        assert_eq!(wto.heads(), [1, 2, 8]);
        assert_eq!(wto.linearize(), [0, 1, 2, 6, 3, 4, 5, 8, 7]);
        assert_eq!(reverse_postorder(&nested, 0), [0, 1, 5, 2, 6, 3, 4, 8, 7]);
        let scc = Scc::compute(&nested);
        assert_eq!(scc.component, [3, 2, 2, 2, 2, 1, 2, 0, 0]);
        assert_eq!(
            components(&scc),
            [vec![7, 8], vec![5], vec![6, 4, 3, 2, 1], vec![0]]
        );

        // Self-loops only: each is a component of its own with no body.
        let self_loops = graph(4, &[(0, 1), (1, 1), (1, 2), (2, 3), (3, 3)]);
        let wto = weak_topological_order(&self_loops, 0);
        assert_eq!(wto.items, [N(0), C(1, vec![]), N(2), C(3, vec![])]);
        assert_eq!(wto.heads(), [1, 3]);
        assert_eq!(reverse_postorder(&self_loops, 0), [0, 1, 2, 3]);
        let scc = Scc::compute(&self_loops);
        assert_eq!(scc.component, [3, 2, 1, 0]);
        assert_eq!(components(&scc), [vec![3], vec![2], vec![1], vec![0]]);

        // Nodes 3 and 4 are unreachable from 0: the orders from the entry
        // skip them, Tarjan numbers them from a later root.
        let unreachable = graph(
            6,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 1),
                (3, 4),
                (4, 3),
                (5, 5),
                (2, 5),
            ],
        );
        let wto = weak_topological_order(&unreachable, 0);
        assert_eq!(wto.items, [C(0, vec![N(1), N(2)]), C(5, vec![])]);
        assert_eq!(wto.linearize(), [0, 1, 2, 5]);
        assert_eq!(reverse_postorder(&unreachable, 0), [0, 1, 2, 5]);
        let scc = Scc::compute(&unreachable);
        assert_eq!(scc.component, [1, 1, 1, 2, 2, 0]);
        assert_eq!(components(&scc), [vec![5], vec![2, 1, 0], vec![4, 3]]);

        // A 1 000-node chain: Tarjan completes the last node first.
        let n = 1000;
        let chain = graph(n, &(1..n).map(|i| (i - 1, i)).collect::<Vec<_>>());
        let scc = Scc::compute(&chain);
        assert!(scc
            .component
            .iter()
            .enumerate()
            .all(|(v, &c)| c == n - 1 - v));
        assert!(scc
            .components
            .iter()
            .enumerate()
            .all(|(c, m)| m == [n - 1 - c]));
        assert_eq!(reverse_postorder(&chain, 0), (0..n).collect::<Vec<_>>());
        let wto = weak_topological_order(&chain, 0);
        assert_eq!(wto.items, (0..n).map(N).collect::<Vec<_>>());
    }

    /// Runs `f` on a thread with a 256 KiB stack.
    fn on_small_stack(f: impl FnOnce() + Send + 'static) {
        let thread = std::thread::Builder::new().stack_size(256 << 10);
        thread
            .spawn(f)
            .expect("spawn")
            .join()
            .expect("no stack overflow");
    }

    #[test]
    fn a_deep_loop_nest_fits_a_small_stack() {
        on_small_stack(|| {
            // Loop `d` runs from node `d` to node `2·depth − d` and back.
            let depth = 5_000;
            let n = 2 * depth + 1;
            let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
            edges.extend((1..=depth).map(|d| (n - 1 - d, d)));
            let nest = graph(n, &edges);
            let wto = weak_topological_order(&nest, 0);
            assert_eq!(wto.heads(), (1..=depth).collect::<Vec<_>>());
            assert_eq!(wto.linearize(), (0..n).collect::<Vec<_>>());
            assert_eq!(Scc::compute(&nest).max_component_size(), n - 2);
        });
    }
}
