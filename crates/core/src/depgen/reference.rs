//! Reference oracles for the two kernels of dependency generation, each
//! the code its kernel replaced — kept verbatim, compiled for tests only —
//! with the differential tests holding them equal: the reaching-definitions
//! walk of [`super::proc_dep_edges`] against the bitset dataflow, every
//! per-procedure segment equal *in order* (segments are stored in cache
//! entries), and [`super::bypass_contract`] against its hashed form, every
//! location's contracted edges equal.

use super::{bypass_contract, proc_dep_edges, DepEdge, DepSource, IntervalDepSource};
use crate::preanalysis::reference::differential_programs;
use crate::{defuse, octagon, preanalysis};
use sga_ir::{Cp, Program};
use sga_utils::{BitSet, FxHashMap, FxHashSet, Idx};

/// [`proc_dep_edges`] by dataflow.
fn proc_dep_edges_dataflow<S: DepSource>(
    program: &Program,
    source: &S,
    pid: sga_ir::ProcId,
) -> Vec<DepEdge> {
    let mut edges = Vec::new();
    if !program.procs[pid].is_external {
        intra_proc_edges_dataflow(program, source, pid, &mut edges);
    }
    edges
}

/// Whole-procedure bitset dataflow per location, iterated in RPO.
fn intra_proc_edges_dataflow<S: DepSource>(
    program: &Program,
    source: &S,
    pid: sga_ir::ProcId,
    sink: &mut Vec<DepEdge>,
) {
    let proc = &program.procs[pid];
    let n = proc.nodes.len();

    // Collect the locations mentioned in this procedure and, per location,
    // its def and use points.
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

    let rpo = sga_utils::graph::reverse_postorder(&proc.cfg_view(), proc.entry.index());

    for (&loc_id, (def_points, use_points)) in &locs_here {
        if use_points.is_empty() || def_points.is_empty() {
            continue;
        }
        // Dataflow over def-point indices: in(n) = ⋃ preds out(p);
        // out(n) = {n} if n defines l (must-kill) else in(n).
        let ndefs = def_points.len();
        let def_index: FxHashMap<usize, usize> = def_points
            .iter()
            .enumerate()
            .map(|(i, &d)| (d, i))
            .collect();
        let mut in_sets: Vec<BitSet> = (0..n).map(|_| BitSet::new(ndefs)).collect();
        let mut out_sets: Vec<BitSet> = (0..n).map(|_| BitSet::new(ndefs)).collect();
        // Initialize defs' own out-sets.
        for (i, &d) in def_points.iter().enumerate() {
            out_sets[d].insert(i);
        }
        // Iterate to fixpoint in RPO (loops converge in a few passes).
        let mut changed = true;
        while changed {
            changed = false;
            for &v in &rpo {
                let mut inset = BitSet::new(ndefs);
                for &p in proc.preds_of(sga_ir::NodeId::new(v)) {
                    inset.union_with(&out_sets[p.index()]);
                }
                if inset != in_sets[v] {
                    in_sets[v] = inset.clone();
                    changed = true;
                }
                if !def_index.contains_key(&v) && out_sets[v] != inset {
                    out_sets[v] = inset;
                    changed = true;
                }
            }
        }
        // Emit edges def → use for every def reaching a use, honoring the
        // source's routing (call sites redirect callee-used locations to
        // the callee entries).
        for &u in use_points {
            let ucp = Cp::new(pid, sga_ir::NodeId::new(u));
            let routes = source.use_routes(ucp, loc_id);
            for di in in_sets[u].iter() {
                let d = Cp::new(pid, sga_ir::NodeId::new(def_points[di]));
                if routes.self_edge {
                    sink.push((loc_id, d, ucp, false));
                }
                for &entry in routes.entries {
                    sink.push((loc_id, d, entry, false));
                }
            }
        }
    }
}

/// Asserts walk == dataflow for every procedure; returns the edge total.
fn assert_segments_equal<S: DepSource>(name: &str, program: &Program, source: &S) -> usize {
    let mut total = 0;
    for pid in program.procs.indices() {
        let walk = proc_dep_edges(program, source, pid);
        let dataflow = proc_dep_edges_dataflow(program, source, pid);
        assert_eq!(
            walk, dataflow,
            "{name}: segment of {}",
            program.procs[pid].name
        );
        total += walk.len();
    }
    total
}

/// Control-flow shapes the generated units do not contain: `(name, source,
/// command to orphan)`. The frontend drops dead code, so nodes unreachable
/// from the entry are made by cutting every edge into the named command.
const HAND_WRITTEN: &[(&str, &str, Option<&str>)] = &[
    (
        "def in unreachable code reaches a reachable use",
        "int x; int y;
         int main(int c) { x = 1; if (c) { x = 2; } y = x; return y; }",
        Some("x := 2"),
    ),
    (
        "use in unreachable code receives nothing",
        "int x; int y;
         int main(int c) { x = 1; if (c) { x = 2; y = x; } return x + y; }",
        Some("x := 2"),
    ),
    (
        "use-and-def node inside a loop",
        "int x;
         int main(int n) { x = 0; while (n > 0) { x = x + n; n = n - 1; } return x; }",
        None,
    ),
];

/// Parses hand-written case `i`, orphans its named command, and returns the
/// program with the nodes of `main` still reachable from the entry.
fn hand_written(i: usize) -> (Program, Vec<usize>) {
    let (name, src, orphan) = HAND_WRITTEN[i];
    let mut program = sga_cfront::parse(src).unwrap_or_else(|e| panic!("{name}: {e:?}"));
    let main = program.main;
    if let Some(text) = orphan {
        let node = program.procs[main]
            .nodes
            .iter_enumerated()
            .find(|(_, n)| sga_ir::pretty::cmd(&program, &n.cmd) == text)
            .unwrap_or_else(|| panic!("{name}: no `{text}`"))
            .0;
        let proc = &mut program.procs[main];
        for p in std::mem::take(&mut proc.preds[node]) {
            proc.succs[p].retain(|&s| s != node);
        }
    }
    let proc = &program.procs[main];
    let reachable = sga_utils::graph::reverse_postorder(&proc.cfg_view(), proc.entry.index());
    assert_eq!(
        reachable.len() < proc.nodes.len(),
        orphan.is_some(),
        "{name}: unreachable nodes"
    );
    (program, reachable)
}

#[test]
fn walk_segments_equal_dataflow_segments() {
    let mut programs = differential_programs();
    for (i, (name, ..)) in HAND_WRITTEN.iter().enumerate() {
        programs.push((name.to_string(), hand_written(i).0));
    }
    for (name, program) in &programs {
        let pre = preanalysis::run(program);
        let du = defuse::compute(program, &pre);
        let source = IntervalDepSource::new(program, &pre, &du);
        let total = assert_segments_equal(name, program, &source);
        assert!(total > 0, "{name}: no intraprocedural edge at all");
    }
}

/// The unreachable-node rule, pinned on its own: a def in unreachable code
/// reaches a reachable use, no edge ends in unreachable code, and a
/// use-and-def node in a loop receives its own definition.
#[test]
fn unreachable_defs_seed_and_unreachable_uses_starve() {
    let x_edges = |i: usize| {
        let (program, reachable) = hand_written(i);
        let pre = preanalysis::run(&program);
        let du = defuse::compute(&program, &pre);
        let source = IntervalDepSource::new(&program, &pre, &du);
        let x = sga_domains::AbsLoc::Var(super::tests::var(&program, "x"));
        let x = du.locs.id(&x).unwrap();
        let edges: Vec<(usize, usize)> = proc_dep_edges(&program, &source, program.main)
            .into_iter()
            .filter(|e| e.0 == x)
            .map(|e| (e.1.node.index(), e.2.node.index()))
            .collect();
        (edges, reachable)
    };
    let (edges, reachable) = x_edges(0);
    assert!(
        edges
            .iter()
            .any(|(d, u)| !reachable.contains(d) && reachable.contains(u)),
        "the orphaned `x := 2` must reach `y := x`: {edges:?}"
    );
    let (edges, reachable) = x_edges(1);
    assert!(
        edges.iter().all(|(_, u)| reachable.contains(u)),
        "`y := x` behind the orphaned `x := 2` must receive nothing: {edges:?}"
    );
    let (edges, _) = x_edges(2);
    assert!(edges.iter().any(|(d, u)| d == u), "x := x + n feeds itself");
}

#[test]
fn walk_segments_equal_dataflow_segments_through_the_octagon_source() {
    let unit = |max_scc| sga_cgen::GenConfig {
        seed: 65261,
        target_loc: 800,
        functions: 32,
        globals: 16,
        max_scc,
        ..sga_cgen::GenConfig::default()
    };
    for (name, config) in [("flat", unit(2)), ("scc-heavy", unit(28))] {
        let program = sga_cfront::parse(&sga_cgen::generate(&config)).expect("parses");
        let pre = preanalysis::run(&program);
        let du = defuse::compute(&program, &pre);
        let packs = octagon::build_packs(&program);
        let fresh = octagon::fresh_packs_of(&program, &packs);
        let source = octagon::OctDefUse::compute(&program, &pre, &du, &packs, &fresh, None);
        let total = assert_segments_equal(name, &program, &source);
        assert!(total > 1000, "{name}: only {total} pack-level edges");
    }
}

/// [`bypass_contract`] over hashed adjacency: a `BTreeSet` per point in two
/// hash maps, `is_real` asked at every visit.
fn bypass_contract_hashed<S: DepSource>(
    source: &S,
    loc: u32,
    edges: &[(Cp, Cp, bool)],
) -> Vec<(Cp, Cp, bool)> {
    use std::collections::BTreeSet;
    // Adjacency with kinds; the bool on each edge is the return-flow flag of
    // its final hop, preserved across contraction.
    let mut outs: FxHashMap<Cp, BTreeSet<(Cp, bool)>> = FxHashMap::default();
    let mut ins: FxHashMap<Cp, BTreeSet<(Cp, bool)>> = FxHashMap::default();
    for &(a, b, k) in edges {
        if a == b && !source.is_real(a, loc) {
            // A relay self-loop forwards a value to itself: a no-op for
            // idempotent joins; dropping it avoids spurious widening cycles.
            continue;
        }
        outs.entry(a).or_default().insert((b, k));
        ins.entry(b).or_default().insert((a, k));
    }

    // Contract relays greedily while it does not grow the edge set
    // (in·out ≤ in+out, i.e. a chain or a fan): the paper's a →l b →l c
    // rule generalized. Hub relays (m×n) stay; the sparse engine simply
    // forwards through them at run time.
    let mut queue: Vec<Cp> = outs.keys().chain(ins.keys()).copied().collect();
    queue.sort_unstable();
    queue.dedup();
    let mut pending: Vec<Cp> = queue;
    while let Some(b) = pending.pop() {
        if source.is_real(b, loc) {
            continue;
        }
        let in_deg = ins.get(&b).map_or(0, BTreeSet::len);
        let out_deg = outs.get(&b).map_or(0, BTreeSet::len);
        if in_deg == 0 || out_deg == 0 || in_deg * out_deg > in_deg + out_deg {
            continue;
        }
        let in_edges: Vec<(Cp, bool)> = ins.remove(&b).unwrap_or_default().into_iter().collect();
        let out_edges: Vec<(Cp, bool)> = outs.remove(&b).unwrap_or_default().into_iter().collect();
        for &(a, _) in &in_edges {
            outs.entry(a).or_default().remove(&(b, false));
            outs.entry(a).or_default().remove(&(b, true));
        }
        for &(c, kc) in &out_edges {
            ins.entry(c).or_default().remove(&(b, kc));
        }
        for &(a, _) in &in_edges {
            for &(c, kc) in &out_edges {
                if a == c && !source.is_real(a, loc) {
                    // Contracting b out of a relay cycle a → b → a would
                    // produce a relay self-loop — a forwarding no-op, drop
                    // it. A *real* a keeps its self-loop: it is genuine
                    // feedback and must stay a widening point.
                    continue;
                }
                outs.entry(a).or_default().insert((c, kc));
                ins.entry(c).or_default().insert((a, kc));
            }
        }
        // Degrees of the neighbours changed; they may be contractible now.
        pending.extend(in_edges.iter().map(|&(a, _)| a));
        pending.extend(out_edges.iter().map(|&(c, _)| c));
    }

    let mut out: Vec<(Cp, Cp, bool)> = Vec::new();
    for (a, bs) in outs {
        for (b, k) in bs {
            out.push((a, b, k));
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Every location's raw edges of every unit, contracted both ways.
fn assert_contractions_equal<S: DepSource>(name: &str, program: &Program, source: &S) -> usize {
    let mut by_loc: FxHashMap<u32, Vec<(Cp, Cp, bool)>> = FxHashMap::default();
    let mut add =
        |loc, from, to, is_return| by_loc.entry(loc).or_default().push((from, to, is_return));
    for pid in program.procs.indices() {
        for (loc, from, to, is_return) in proc_dep_edges(program, source, pid) {
            add(loc, from, to, is_return);
        }
    }
    source.inter_edges(&mut add);
    let mut contracted = 0;
    for (loc, edges) in &by_loc {
        let got = bypass_contract(source, *loc, edges);
        assert_eq!(
            got,
            bypass_contract_hashed(source, *loc, edges),
            "{name}: location {loc}"
        );
        let raw: FxHashSet<_> = edges.iter().collect();
        contracted += usize::from(got.len() < raw.len());
    }
    contracted
}

#[test]
fn dense_contraction_equals_hashed_contraction() {
    let mut contracted = 0;
    for (name, program) in &crate::sparse::differential::corpus() {
        let pre = preanalysis::run(program);
        let du = defuse::compute(program, &pre);
        let source = IntervalDepSource::new(program, &pre, &du);
        contracted += assert_contractions_equal(name, program, &source);
        let packs = octagon::build_packs(program);
        let fresh = octagon::fresh_packs_of(program, &packs);
        let source = octagon::OctDefUse::compute(program, &pre, &du, &packs, &fresh, None);
        contracted += assert_contractions_equal(name, program, &source);
    }
    assert!(contracted > 500, "only {contracted} locations lost an edge");
}
