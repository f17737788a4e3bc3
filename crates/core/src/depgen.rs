//! Data-dependency generation (§2.6 + §5).
//!
//! Per procedure, a reaching-definitions pass over `D̂`/`Û` — "our notion of
//! data dependencies equals def-use chains with D̂ and Û being treated as
//! must-definitions and must-uses" — produces the intraprocedural edges.
//! Interprocedural edges link the procedure boundary: parameters flow on
//! explicit call-site → entry edges; callee-*used* locations flow from
//! their reaching definitions straight to the entry (the
//! [`DepSource::use_routes`] redirection, which keeps pre-call values apart
//! from returned ones); callee-*defined* locations and the return variable
//! flow back on exit → call-site edges tagged as return flow.
//!
//! The **bypass optimization** then contracts chains through pure relays:
//! "suppose a →l b, b →l c, and that l is not defined nor used in b, then we
//! remove those two dependencies and add a →l c" — applied while it is
//! *beneficial* (never growing the edge set; hub relays stay and forward at
//! run time). Relays are exactly the nodes where `l` appears only in the
//! relay-extended sets, never in the real ones
//! ([`crate::defuse::DefUse::is_real`]).

use crate::defuse::DefUse;
use crate::preanalysis::PreAnalysis;
use sga_ir::{Cmd, Cp, Program};
use sga_utils::graph::{AdjGraph, Scc};
use sga_utils::{FxHashMap, FxHashSet, Idx};

/// Options controlling dependency generation.
#[derive(Clone, Copy, Debug)]
pub struct DepGenOptions {
    /// Apply the §5 bypass optimization (on by default; the ablation
    /// harness switches it off).
    pub bypass: bool,
}

impl Default for DepGenOptions {
    fn default() -> Self {
        DepGenOptions { bypass: true }
    }
}

/// Phase statistics for the tables.
#[derive(Clone, Copy, Debug, Default)]
pub struct DepGenStats {
    /// Edges before the bypass optimization.
    pub raw_edges: usize,
    /// Edges after (equals `raw_edges` when bypass is off).
    pub final_edges: usize,
    /// Distinct (from, to, loc) triples — the BDD/set store population.
    pub triples: usize,
}

/// The generated data dependencies.
///
/// Incoming edges are split by how the value arrives: *pre* edges carry
/// ordinary def→use flow; *return* edges carry values coming back from a
/// callee's exit to the call site. The distinction matters to the sparse
/// call transfer: argument expressions must be evaluated against pre-call
/// values only.
#[derive(Debug, Default)]
pub struct DataDeps {
    /// Forward edges: `from → [(loc, to), …]`, deduplicated and sorted.
    pub out: FxHashMap<Cp, Vec<(u32, Cp)>>,
    /// Reverse pre-flow edges: `to → [(loc, from), …]`.
    pub into: FxHashMap<Cp, Vec<(u32, Cp)>>,
    /// Reverse return-flow edges (callee exit → call site).
    pub into_ret: FxHashMap<Cp, Vec<(u32, Cp)>>,
    /// Control points on dependency cycles — the sparse engine's widening
    /// points.
    pub cycle_nodes: FxHashSet<Cp>,
    /// Topological rank of each dependency-graph node (producers before
    /// consumers; cycles share ranks) — the sparse worklist's priority.
    pub topo_rank: FxHashMap<Cp, u32>,
    /// Generation statistics.
    pub stats: DepGenStats,
}

impl DataDeps {
    /// Incoming pre-flow dependencies of `cp`.
    pub fn deps_into(&self, cp: Cp) -> &[(u32, Cp)] {
        self.into.get(&cp).map_or(&[], Vec::as_slice)
    }

    /// Incoming return-flow dependencies of `cp` (call sites only).
    pub fn deps_into_ret(&self, cp: Cp) -> &[(u32, Cp)] {
        self.into_ret.get(&cp).map_or(&[], Vec::as_slice)
    }

    /// Outgoing dependencies of `cp`.
    pub fn deps_out(&self, cp: Cp) -> &[(u32, Cp)] {
        self.out.get(&cp).map_or(&[], Vec::as_slice)
    }

    /// Iterates all `(from, loc, to)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (Cp, u32, Cp)> + '_ {
        self.out
            .iter()
            .flat_map(|(&from, outs)| outs.iter().map(move |&(loc, to)| (from, loc, to)))
    }

    /// Whether `from →loc to` is present (either flavour).
    pub fn has(&self, from: Cp, loc: u32, to: Cp) -> bool {
        self.out
            .get(&from)
            .is_some_and(|v| v.binary_search(&(loc, to)).is_ok())
    }
}

/// What dependency generation needs from an analysis instance: per-point
/// def/use sets as dense location ids, the real/relay distinction, and the
/// explicit interprocedural linking edges. The interval instance's source is
/// [`IntervalDepSource`]; the octagon instance supplies packs.
pub trait DepSource {
    /// `D̂(cp)` as location ids (sorted).
    fn defs(&self, cp: Cp) -> &[u32];
    /// `Û(cp)` as location ids (sorted).
    fn uses(&self, cp: Cp) -> &[u32];
    /// Whether `loc` is a real (non-relay) def or use at `cp`.
    fn is_real(&self, cp: Cp, loc: u32) -> bool;

    /// Where reaching-definition edges for a use of `loc` at `cp` should
    /// land. Most uses consume at the node itself; a call site redirects
    /// callee-used locations to the callee entries so pre-call values flow
    /// in without mixing with returned ones.
    fn use_routes(&self, cp: Cp, loc: u32) -> UseRoutes<'_> {
        let _ = (cp, loc);
        UseRoutes {
            self_edge: true,
            entries: &[],
        }
    }
    /// Emits the interprocedural linking edges `(loc, from, to,
    /// is_return)`; `is_return` marks callee-exit → call-site edges.
    fn inter_edges(&self, sink: &mut dyn FnMut(u32, Cp, Cp, bool));
}

/// Routing of a use's incoming dependency edges (see
/// [`DepSource::use_routes`]).
#[derive(Clone, Copy, Debug)]
pub struct UseRoutes<'a> {
    /// Emit the ordinary `def → use` edge to the node itself.
    pub self_edge: bool,
    /// Additional callee entries that receive `def → entry` edges.
    pub entries: &'a [Cp],
}

/// Generates data dependencies for the interval instance.
pub fn generate(
    program: &Program,
    pre: &PreAnalysis,
    du: &DefUse,
    options: DepGenOptions,
) -> DataDeps {
    let source = IntervalDepSource::new(program, pre, du);
    generate_from(program, &source, options)
}

/// One dependency edge: `(loc, from, to, is_return)`.
pub type DepEdge = (u32, Cp, Cp, bool);

/// Generates data dependencies from any [`DepSource`].
///
/// This is the sequential driver over the staged pieces: per-procedure
/// reaching-definition segments ([`proc_dep_edges`], independent across
/// procedures) merged by [`assemble`], which adds the interprocedural
/// linking edges and runs the bypass contraction. The parallel pipeline
/// calls the pieces itself.
pub fn generate_from<S: DepSource>(
    program: &Program,
    source: &S,
    options: DepGenOptions,
) -> DataDeps {
    let segments: Vec<Vec<DepEdge>> = program
        .procs
        .indices()
        .map(|pid| proc_dep_edges(program, source, pid))
        .collect();
    assemble(source, options, &segments)
}

/// Per-procedure dependency segment: the intraprocedural def→use edges of
/// `pid` (already routed — a call site's callee-used locations land on the
/// callee entries). Independent across procedures.
pub fn proc_dep_edges<S: DepSource>(
    program: &Program,
    source: &S,
    pid: sga_ir::ProcId,
) -> Vec<DepEdge> {
    let mut edges = Vec::new();
    if program.procs[pid].is_external {
        return edges;
    }
    intra_proc_edges(program, source, pid, &mut edges);
    edges
}

/// Merges per-procedure segments (pass them in procedure order for
/// determinism), adds the source's interprocedural linking edges, applies
/// the bypass contraction, and computes widening points and ranks.
pub fn assemble<S: DepSource>(
    source: &S,
    options: DepGenOptions,
    segments: &[Vec<DepEdge>],
) -> DataDeps {
    // Raw edges grouped by location id for the bypass pass. The bool marks
    // return-flow edges.
    let mut by_loc: FxHashMap<u32, Vec<(Cp, Cp, bool)>> = FxHashMap::default();
    let mut raw_edges = 0usize;
    for segment in segments {
        for &(loc, from, to, is_return) in segment {
            by_loc.entry(loc).or_default().push((from, to, is_return));
            raw_edges += 1;
        }
    }
    source.inter_edges(&mut |loc, from, to, is_return| {
        by_loc.entry(loc).or_default().push((from, to, is_return));
        raw_edges += 1;
    });

    // Bypass optimization per location.
    let mut total_final = 0usize;
    let mut out: FxHashMap<Cp, Vec<(u32, Cp)>> = FxHashMap::default();
    let mut into: FxHashMap<Cp, Vec<(u32, Cp)>> = FxHashMap::default();
    let mut into_ret: FxHashMap<Cp, Vec<(u32, Cp)>> = FxHashMap::default();
    for (loc_id, edges) in &by_loc {
        let final_edges = if options.bypass {
            bypass_contract(source, *loc_id, edges)
        } else {
            edges.clone()
        };
        for (from, to, is_return) in final_edges {
            out.entry(from).or_default().push((*loc_id, to));
            let side = if is_return { &mut into_ret } else { &mut into };
            side.entry(to).or_default().push((*loc_id, from));
        }
    }
    for v in out.values_mut() {
        v.sort_unstable();
        v.dedup();
        total_final += v.len();
    }
    for v in into.values_mut().chain(into_ret.values_mut()) {
        v.sort_unstable();
        v.dedup();
    }

    let (cycle_nodes, topo_rank) = dep_graph_structure(&out);
    // Widening points are the *real* cycle nodes only. Relays on a cycle
    // merely forward joins — they cannot generate an ascending chain, so any
    // infinite ascent passes through a real definition on the same cycle,
    // which widens. Widening at relays is not just redundant: it makes
    // precision depend on how many relay hops survive contraction, so the
    // bypass ablation would change results instead of only edge counts.
    let cycle_nodes = cycle_nodes
        .into_iter()
        .filter(|cp| {
            out.get(cp)
                .is_some_and(|es| es.iter().any(|&(loc, _)| source.is_real(*cp, loc)))
        })
        .collect();
    DataDeps {
        out,
        into,
        into_ret,
        cycle_nodes,
        topo_rank,
        stats: DepGenStats {
            raw_edges,
            final_edges: total_final,
            triples: total_final,
        },
    }
}

/// Reaching-definition pass for one procedure, appending to `sink`: from
/// each def point of each location, one forward walk that stops behind the
/// next definition (`D̂` is a must-definition, so it kills).
fn intra_proc_edges<S: DepSource>(
    program: &Program,
    source: &S,
    pid: sga_ir::ProcId,
    sink: &mut Vec<DepEdge>,
) {
    let proc = &program.procs[pid];
    let n = proc.nodes.len();

    // Collect the locations mentioned in this procedure and, per location,
    // its def and use points. Segments are emitted in this map's iteration
    // order and stored in cache entries: build it exactly like this.
    let mut locs_here: FxHashMap<u32, (Vec<usize>, Vec<usize>)> = FxHashMap::default();
    for (nid, _) in proc.nodes.iter_enumerated() {
        let cp = Cp::new(pid, nid);
        for &id in source.defs(cp) {
            locs_here.entry(id).or_default().0.push(nid.index());
        }
        for &id in source.uses(cp) {
            locs_here.entry(id).or_default().1.push(nid.index());
        }
    }

    // Nothing to connect: skip the walk's set-up.
    if locs_here
        .values()
        .all(|(defs, uses)| defs.is_empty() || uses.is_empty())
    {
        return;
    }

    // `seen[v]` is the last walk that entered `v`. Nodes unreachable from
    // the entry keep `u32::MAX` and are never entered — they neither receive
    // nor forward a definition — yet a def *at* one still walks into its
    // reachable successors.
    let mut seen = vec![u32::MAX; n];
    for v in sga_utils::graph::reverse_postorder(&proc.cfg_view(), proc.entry.index()) {
        seen[v] = 0;
    }
    let mut walk = 0u32;
    // `def_at[v] == mark` / `use_at[v] == mark`: `v` defines / uses the
    // location being processed.
    let (mut def_at, mut use_at) = (vec![0u32; n], vec![0u32; n]);
    let succs = |v: usize| {
        proc.succs_of(sga_ir::NodeId::new(v))
            .iter()
            .map(|s| s.index())
    };
    let mut stack: Vec<usize> = Vec::new();
    let mut reached: Vec<(usize, usize)> = Vec::new();

    for (mark, (&loc_id, (def_points, use_points))) in (1u32..).zip(&locs_here) {
        if use_points.is_empty() || def_points.is_empty() {
            continue;
        }
        for &d in def_points {
            def_at[d] = mark;
        }
        for &u in use_points {
            use_at[u] = mark;
        }
        for &d in def_points {
            walk += 1;
            stack.extend(succs(d));
            while let Some(v) = stack.pop() {
                if seen[v] >= walk {
                    continue;
                }
                seen[v] = walk;
                if use_at[v] == mark {
                    reached.push((v, d));
                }
                // A defining node is entered (a use-and-def node receives
                // `d`, a loop delivers `d` to itself) but not walked past.
                if def_at[v] != mark {
                    stack.extend(succs(v));
                }
            }
        }
        // Emit edges def → use, uses ascending and defs ascending within a
        // use, honoring the source's routing (call sites redirect
        // callee-used locations to the callee entries).
        reached.sort_unstable();
        for defs_of_use in reached.chunk_by(|a, b| a.0 == b.0) {
            let ucp = Cp::new(pid, sga_ir::NodeId::new(defs_of_use[0].0));
            let routes = source.use_routes(ucp, loc_id);
            for &(_, d) in defs_of_use {
                let d = Cp::new(pid, sga_ir::NodeId::new(d));
                if routes.self_edge {
                    sink.push((loc_id, d, ucp, false));
                }
                for &entry in routes.entries {
                    sink.push((loc_id, d, entry, false));
                }
            }
        }
        reached.clear();
    }
}

/// The interval instance's [`DepSource`]: id-mapped views of [`DefUse`]
/// plus the call-site ↔ callee linking of §5.
pub struct IntervalDepSource<'a> {
    program: &'a Program,
    pre: &'a PreAnalysis,
    du: &'a DefUse,
    def_ids: FxHashMap<Cp, Vec<u32>>,
    use_ids: FxHashMap<Cp, Vec<u32>>,
    /// Per call site: locations whose uses route (also) to callee entries,
    /// with a flag for whether the call itself consumes the value too.
    routes: FxHashMap<Cp, FxHashMap<u32, (bool, Vec<Cp>)>>,
}

impl<'a> IntervalDepSource<'a> {
    /// Precomputes the id-mapped def/use views.
    pub fn new(program: &'a Program, pre: &'a PreAnalysis, du: &'a DefUse) -> Self {
        let mut def_ids: FxHashMap<Cp, Vec<u32>> = FxHashMap::default();
        let mut use_ids: FxHashMap<Cp, Vec<u32>> = FxHashMap::default();
        for (cp, sets) in &du.sets {
            let mut d: Vec<u32> = sets
                .defs
                .iter()
                .map(|l| du.locs.id(l).expect("interned in defuse pass 3"))
                .collect();
            d.sort_unstable();
            def_ids.insert(*cp, d);
            let mut u: Vec<u32> = sets
                .uses
                .iter()
                .map(|l| du.locs.id(l).expect("interned in defuse pass 3"))
                .collect();
            u.sort_unstable();
            use_ids.insert(*cp, u);
        }
        // Call-site routing: callee-used locations flow def → callee entry;
        // the call node itself consumes a location only when it really uses
        // it (arguments, pointer bases) or must pre-join a spurious def.
        let mut routes: FxHashMap<Cp, FxHashMap<u32, (bool, Vec<Cp>)>> = FxHashMap::default();
        for (pid, proc) in program.procs.iter_enumerated() {
            if proc.is_external {
                continue;
            }
            for (nid, node) in proc.nodes.iter_enumerated() {
                if !matches!(node.cmd, Cmd::Call { .. }) {
                    continue;
                }
                let cp = Cp::new(pid, nid);
                let mut per_loc: FxHashMap<u32, (bool, Vec<Cp>)> = FxHashMap::default();
                for &t_pid in pre.call_targets(cp) {
                    let callee = &program.procs[t_pid];
                    if callee.is_external {
                        continue;
                    }
                    let entry = Cp::new(t_pid, callee.entry);
                    for l in &du.summary_uses[t_pid] {
                        let Some(id) = du.locs.id(l) else { continue };
                        per_loc
                            .entry(id)
                            .or_insert((false, Vec::new()))
                            .1
                            .push(entry);
                    }
                }
                if per_loc.is_empty() {
                    continue;
                }
                // The call keeps its self-edge for real uses and for the
                // pre-join of callee-defined (spurious-def) locations.
                let sets = &du.sets[&cp];
                for (id, (self_edge, _)) in per_loc.iter_mut() {
                    let l = du.locs.loc(*id);
                    *self_edge = sets.real_uses.binary_search(&l).is_ok()
                        || sets.defs.binary_search(&l).is_ok();
                }
                routes.insert(cp, per_loc);
            }
        }
        IntervalDepSource {
            program,
            pre,
            du,
            def_ids,
            use_ids,
            routes,
        }
    }
}

impl DepSource for IntervalDepSource<'_> {
    fn defs(&self, cp: Cp) -> &[u32] {
        self.def_ids.get(&cp).map_or(&[], Vec::as_slice)
    }

    fn uses(&self, cp: Cp) -> &[u32] {
        self.use_ids.get(&cp).map_or(&[], Vec::as_slice)
    }

    fn is_real(&self, cp: Cp, loc: u32) -> bool {
        self.du.is_real(cp, &self.du.locs.loc(loc))
    }

    fn use_routes(&self, cp: Cp, loc: u32) -> UseRoutes<'_> {
        match self.routes.get(&cp).and_then(|m| m.get(&loc)) {
            Some((self_edge, entries)) => UseRoutes {
                self_edge: *self_edge,
                entries: entries.as_slice(),
            },
            None => UseRoutes {
                self_edge: true,
                entries: &[],
            },
        }
    }

    fn inter_edges(&self, sink: &mut dyn FnMut(u32, Cp, Cp, bool)) {
        use sga_domains::AbsLoc;
        let mut add = |l: &AbsLoc, from: Cp, to: Cp, is_return: bool| {
            if let Some(id) = self.du.locs.id(l) {
                sink(id, from, to, is_return);
            }
        };
        for (pid, proc) in self.program.procs.iter_enumerated() {
            if proc.is_external {
                continue;
            }
            for (nid, node) in proc.nodes.iter_enumerated() {
                if !matches!(node.cmd, Cmd::Call { .. }) {
                    continue;
                }
                let cp = Cp::new(pid, nid);
                for &t_pid in self.pre.call_targets(cp) {
                    let callee = &self.program.procs[t_pid];
                    if callee.is_external {
                        continue;
                    }
                    let entry = Cp::new(t_pid, callee.entry);
                    let exit = Cp::new(t_pid, callee.exit);
                    for &p in &callee.params {
                        add(&AbsLoc::Var(p), cp, entry, false);
                    }
                    // Callee-used locations arrive at the entry straight
                    // from their reaching definitions (see use_routes), not
                    // via the call node.
                    for l in &self.du.summary_defs[t_pid] {
                        add(l, exit, cp, true);
                    }
                    add(&AbsLoc::Var(callee.ret_var), exit, cp, true);
                }
            }
        }
    }
}

/// Contracts relay chains for one location, per §5's optimization, iterated
/// to convergence (handles relay cycles from recursion).
///
/// The points the location's edges mention are numbered densely in
/// ascending order — so index order is point order, the order the pending
/// stack and the result rely on — adjacency is one sorted vector per point,
/// and `is_real` is asked once per point.
fn bypass_contract<S: DepSource>(
    source: &S,
    loc: u32,
    edges: &[(Cp, Cp, bool)],
) -> Vec<(Cp, Cp, bool)> {
    /// One end of an edge: the peer's index and the return-flow flag of the
    /// edge's final hop, preserved across contraction.
    type End = (usize, bool);
    fn insert(ends: &mut Vec<End>, end: End) {
        if let Err(at) = ends.binary_search(&end) {
            ends.insert(at, end);
        }
    }
    fn remove(ends: &mut Vec<End>, end: End) {
        if let Ok(at) = ends.binary_search(&end) {
            ends.remove(at);
        }
    }

    let mut cps: Vec<Cp> = edges.iter().flat_map(|&(a, b, _)| [a, b]).collect();
    cps.sort_unstable();
    cps.dedup();
    let index = |cp: Cp| cps.binary_search(&cp).expect("every end is numbered");
    let real: Vec<bool> = cps.iter().map(|&cp| source.is_real(cp, loc)).collect();
    let mut outs: Vec<Vec<End>> = vec![Vec::new(); cps.len()];
    let mut ins: Vec<Vec<End>> = vec![Vec::new(); cps.len()];
    for &(a, b, k) in edges {
        let (a, b) = (index(a), index(b));
        if a == b && !real[a] {
            // A relay self-loop forwards a value to itself: a no-op for
            // idempotent joins; dropping it avoids spurious widening cycles.
            continue;
        }
        insert(&mut outs[a], (b, k));
        insert(&mut ins[b], (a, k));
    }

    // Contract relays greedily while it does not grow the edge set
    // (in·out ≤ in+out, i.e. a chain or a fan): the paper's a →l b →l c
    // rule generalized. Hub relays (m×n) stay; the sparse engine simply
    // forwards through them at run time.
    let mut pending: Vec<usize> = (0..cps.len()).collect();
    while let Some(b) = pending.pop() {
        if real[b] {
            continue;
        }
        let in_deg = ins[b].len();
        let out_deg = outs[b].len();
        if in_deg == 0 || out_deg == 0 || in_deg * out_deg > in_deg + out_deg {
            continue;
        }
        let in_edges = std::mem::take(&mut ins[b]);
        let out_edges = std::mem::take(&mut outs[b]);
        for &(a, ka) in &in_edges {
            remove(&mut outs[a], (b, ka));
        }
        for &(c, kc) in &out_edges {
            remove(&mut ins[c], (b, kc));
        }
        for &(a, _) in &in_edges {
            for &(c, kc) in &out_edges {
                if a == c && !real[a] {
                    // Contracting b out of a relay cycle a → b → a would
                    // produce a relay self-loop — a forwarding no-op, drop
                    // it. A *real* a keeps its self-loop: it is genuine
                    // feedback and must stay a widening point.
                    continue;
                }
                insert(&mut outs[a], (c, kc));
                insert(&mut ins[c], (a, kc));
            }
        }
        // Degrees of the neighbours changed; they may be contractible now.
        pending.extend(in_edges.iter().map(|&(a, _)| a));
        pending.extend(out_edges.iter().map(|&(c, _)| c));
    }

    // Ascending and duplicate-free as the indices are.
    let mut contracted = Vec::with_capacity(outs.iter().map(Vec::len).sum());
    for (a, ends) in outs.iter().enumerate() {
        contracted.extend(ends.iter().map(|&(b, k)| (cps[a], cps[b], k)));
    }
    contracted
}

/// Control points participating in dependency cycles (including
/// self-loops), plus a topological ranking of the dependency graph's SCC
/// condensation (producers rank before consumers).
fn dep_graph_structure(out: &FxHashMap<Cp, Vec<(u32, Cp)>>) -> (FxHashSet<Cp>, FxHashMap<Cp, u32>) {
    // Dense-number the involved cps.
    let mut ids: FxHashMap<Cp, usize> = FxHashMap::default();
    let mut cps: Vec<Cp> = Vec::new();
    let id_of = |cp: Cp, ids: &mut FxHashMap<Cp, usize>, cps: &mut Vec<Cp>| -> usize {
        *ids.entry(cp).or_insert_with(|| {
            cps.push(cp);
            cps.len() - 1
        })
    };
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut self_loops: FxHashSet<Cp> = FxHashSet::default();
    for (&from, outs) in out {
        for &(_, to) in outs {
            if from == to {
                self_loops.insert(from);
                continue;
            }
            let a = id_of(from, &mut ids, &mut cps);
            let b = id_of(to, &mut ids, &mut cps);
            edges.push((a, b));
        }
    }
    let mut g = AdjGraph::new(cps.len());
    for (a, b) in edges {
        g.add_edge(a, b);
    }
    let scc = Scc::compute(&g);
    let mut cycle: FxHashSet<Cp> = self_loops;
    let mut rank: FxHashMap<Cp, u32> = FxHashMap::default();
    let ncomp = scc.len() as u32;
    for (i, &cp) in cps.iter().enumerate() {
        if scc.in_cycle(i) {
            cycle.insert(cp);
        }
        // Tarjan numbers components in reverse topological order (an SCC
        // completes after everything it reaches), so invert for
        // producers-first ranks.
        rank.insert(cp, ncomp - scc.component[i] as u32);
    }
    (cycle, rank)
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{defuse, preanalysis};
    use sga_cfront::parse;
    use sga_domains::AbsLoc;
    use sga_ir::VarId;

    struct Setup {
        program: Program,
        du: DefUse,
        deps: DataDeps,
    }

    fn setup(src: &str) -> Setup {
        setup_opt(src, DepGenOptions::default())
    }

    fn setup_opt(src: &str, options: DepGenOptions) -> Setup {
        let program = parse(src).unwrap();
        let pre = preanalysis::run(&program);
        let du = defuse::compute(&program, &pre);
        let deps = generate(&program, &pre, &du, options);
        Setup { program, du, deps }
    }

    pub(super) fn var(program: &Program, name: &str) -> VarId {
        program
            .vars
            .iter_enumerated()
            .find(|(_, v)| v.name == name)
            .map(|(i, _)| i)
            .unwrap_or_else(|| panic!("no var {name}"))
    }

    fn assign_to(program: &Program, name: &str) -> Vec<Cp> {
        let v = var(program, name);
        program
            .all_points()
            .filter(
                |cp| matches!(program.cmd(*cp), Cmd::Assign(sga_ir::LVal::Var(x), _) if *x == v),
            )
            .collect()
    }

    #[test]
    fn straight_line_dependency() {
        let s = setup("int main() { int x = 1; int y = x; return y; }");
        let x_def = assign_to(&s.program, "x")[0];
        let y_def = assign_to(&s.program, "y")[0];
        let x_id = s.du.locs.id(&AbsLoc::Var(var(&s.program, "x"))).unwrap();
        assert!(
            s.deps.has(x_def, x_id, y_def),
            "x flows def→use:\n{:?}",
            s.deps.out
        );
    }

    #[test]
    fn kill_blocks_dependency() {
        // x = 1; x = 2; y = x — only the second def reaches.
        let s = setup("int main() { int x = 1; x = 2; int y = x; return y; }");
        let xdefs = assign_to(&s.program, "x");
        let y_def = assign_to(&s.program, "y")[0];
        let x_id = s.du.locs.id(&AbsLoc::Var(var(&s.program, "x"))).unwrap();
        assert!(
            !s.deps.has(xdefs[0], x_id, y_def),
            "killed def must not flow"
        );
        assert!(s.deps.has(xdefs[1], x_id, y_def));
    }

    #[test]
    fn both_branch_defs_reach_join_use() {
        let s = setup("int main(int c) { int x; if (c) x = 1; else x = 2; return x; }");
        let xdefs = assign_to(&s.program, "x");
        assert_eq!(xdefs.len(), 2);
        let x_id = s.du.locs.id(&AbsLoc::Var(var(&s.program, "x"))).unwrap();
        let ret = s
            .program
            .all_points()
            .find(|cp| matches!(s.program.cmd(*cp), Cmd::Return(Some(_))))
            .unwrap();
        assert!(s.deps.has(xdefs[0], x_id, ret));
        assert!(s.deps.has(xdefs[1], x_id, ret));
    }

    #[test]
    fn loop_carried_dependency_is_cyclic() {
        let s = setup("int main() { int i = 0; while (i < 9) { i = i + 1; } return i; }");
        let incr = assign_to(&s.program, "i")
            .into_iter()
            .find(|cp| matches!(s.program.cmd(*cp), Cmd::Assign(_, sga_ir::Expr::Binop(..))))
            .unwrap();
        assert!(
            s.deps.cycle_nodes.contains(&incr),
            "loop increment must be a widening point: {:?}",
            s.deps.cycle_nodes
        );
    }

    #[test]
    fn interprocedural_global_flow() {
        // The paper's §5 example: x defined in f, used in h, g in between
        // neither defines nor uses it — after bypass, the dependency skips
        // g entirely.
        let s = setup(
            "int x;
             int h() { return x; }
             int g() { return h(); }
             int f() { x = 7; return g(); }
             int main() { return f(); }",
        );
        let x_def = assign_to(&s.program, "x")[0];
        let x_id = s.du.locs.id(&AbsLoc::Var(var(&s.program, "x"))).unwrap();
        let h = s.program.proc_by_name("h").unwrap();
        let h_ret = s
            .program
            .all_points()
            .find(|cp| cp.proc == h && matches!(s.program.cmd(*cp), Cmd::Return(Some(_))))
            .unwrap();
        assert!(
            s.deps.has(x_def, x_id, h_ret),
            "def in f must reach use in h directly: {:?}",
            s.deps.out.get(&x_def)
        );
        // And the value does NOT route through g's entry (bypass applied).
        let g_proc = s.program.proc_by_name("g").unwrap();
        let g_entry = Cp::new(g_proc, s.program.procs[g_proc].entry);
        assert!(
            !s.deps.has(x_def, x_id, g_entry),
            "bypass should skip g's relay for x"
        );
    }

    #[test]
    fn bypass_off_keeps_relay_chain() {
        let s = setup_opt(
            "int x;
             int h() { return x; }
             int g() { return h(); }
             int f() { x = 7; return g(); }
             int main() { return f(); }",
            DepGenOptions { bypass: false },
        );
        let x_def = assign_to(&s.program, "x")[0];
        let x_id = s.du.locs.id(&AbsLoc::Var(var(&s.program, "x"))).unwrap();
        // Without bypass, x flows hop by hop: def → call g → entry g → …
        let h = s.program.proc_by_name("h").unwrap();
        let h_ret = s
            .program
            .all_points()
            .find(|cp| cp.proc == h && matches!(s.program.cmd(*cp), Cmd::Return(Some(_))))
            .unwrap();
        assert!(
            !s.deps.has(x_def, x_id, h_ret),
            "direct edge only exists after bypass"
        );
        assert!(s.deps.stats.final_edges >= s.deps.stats.raw_edges);
    }

    #[test]
    fn bypass_reduces_edge_count() {
        let src = "int x;
             int h() { return x; }
             int g() { return h(); }
             int f() { x = 7; return g(); }
             int main() { return f(); }";
        let with = setup(src);
        let without = setup_opt(src, DepGenOptions { bypass: false });
        assert!(
            with.deps.stats.final_edges < without.deps.stats.final_edges,
            "bypass {} !< raw {}",
            with.deps.stats.final_edges,
            without.deps.stats.final_edges
        );
    }

    #[test]
    fn no_spurious_sibling_dependency() {
        // §5's motivating example: f and g both call h (which ignores x);
        // the def of x in f must NOT reach the use in g.
        let s = setup(
            "int x; int a; int b;
             int h() { return 0; }
             int f() { x = 0; h(); a = x; return 0; }
             int g() { x = 1; h(); b = x; return 0; }
             int main(int c) { if (c) f(); else g(); return 0; }",
        );
        let x_id = s.du.locs.id(&AbsLoc::Var(var(&s.program, "x"))).unwrap();
        let f = s.program.proc_by_name("f").unwrap();
        let g = s.program.proc_by_name("g").unwrap();
        let def_in_f = assign_to(&s.program, "x")
            .into_iter()
            .find(|cp| cp.proc == f)
            .unwrap();
        let def_in_g = assign_to(&s.program, "x")
            .into_iter()
            .find(|cp| cp.proc == g)
            .unwrap();
        let use_in_f = assign_to(&s.program, "a")[0];
        let use_in_g = assign_to(&s.program, "b")[0];
        assert!(s.deps.has(def_in_f, x_id, use_in_f));
        assert!(s.deps.has(def_in_g, x_id, use_in_g));
        assert!(
            !s.deps.has(def_in_f, x_id, use_in_g),
            "spurious cross-procedure dependency 1 →x 4 must be absent (§5)"
        );
        assert!(!s.deps.has(def_in_g, x_id, use_in_f));
    }

    #[test]
    fn recursive_function_has_cyclic_param_dependency() {
        let s = setup(
            "int f(int n) { if (n <= 0) return 0; return f(n - 1); }
             int main() { return f(9); }",
        );
        assert!(
            !s.deps.cycle_nodes.is_empty(),
            "recursion must create dep cycles"
        );
    }
}
