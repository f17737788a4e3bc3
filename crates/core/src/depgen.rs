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
//! ([`crate::defuse::DefUse::real_ids`]).
//!
//! The relation is written once, as [`Rows`] over the dense point numbering
//! sorted by location in the instance's order ([`DepSource::cmp_locs`]),
//! then by peer: the sparse engine reads the rows as they are.

use crate::defuse::DefUse;
use crate::preanalysis::PreAnalysis;
use sga_domains::AbsLoc;
use sga_ir::{Cmd, Cp, PointNumbering, ProcId, Program};
use sga_utils::graph::{DiGraph, Scc};
use sga_utils::rows::Scatter;
use sga_utils::{BitSet, FxHashMap, FxHashSet, Idx, Rows};
use std::cmp::Ordering;

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

/// Dependency generation's work counts, for the tables.
#[derive(Clone, Copy, Debug, Default)]
pub struct DepGenStats {
    /// Edges before the bypass optimization.
    pub raw_edges: usize,
    /// Distinct `(from, loc, to)` triples after it.
    pub final_edges: usize,
    /// Nodes entered by the per-procedure reaching-definition walks.
    pub walk_visits: usize,
    /// Definitions those walks started from: one walk per definition.
    pub walk_defs: usize,
}

/// The generated data dependencies.
///
/// Incoming edges are split by how the value arrives: *pre* edges carry
/// ordinary def→use flow; *return* edges carry values coming back from a
/// callee's exit to the call site. The distinction matters to the sparse
/// call transfer: argument expressions must be evaluated against pre-call
/// values only. Every row is sorted by location (the instance's order),
/// then by peer, without repeats.
#[derive(Debug)]
pub struct DataDeps {
    num: PointNumbering,
    /// Location id → position in the instance's order, for every id the
    /// instance interns ([`DepSource::loc_count`]), on an edge or not.
    loc_rank: Vec<u32>,
    /// Forward edges, per point: `(loc, to)`.
    pub(crate) out: Rows<(u32, Cp)>,
    /// Reverse pre-flow edges, per point: `(loc, from)`.
    pub(crate) into: Rows<(u32, Cp)>,
    /// Reverse return-flow edges (callee exit → call site).
    pub(crate) into_ret: Rows<(u32, Cp)>,
    /// The widening points ([`DataDeps::cycle_nodes`]).
    pub(crate) cycle: BitSet,
    /// Per point, the worklist's priority ([`DataDeps::topo_rank`]).
    topo_rank: Vec<u32>,
    /// Generation statistics.
    pub stats: DepGenStats,
}

impl DataDeps {
    /// Incoming pre-flow dependencies of `cp`.
    pub fn deps_into(&self, cp: Cp) -> &[(u32, Cp)] {
        self.into.row(self.num.index(cp))
    }

    /// Incoming return-flow dependencies of `cp` (call sites only).
    pub fn deps_into_ret(&self, cp: Cp) -> &[(u32, Cp)] {
        self.into_ret.row(self.num.index(cp))
    }

    /// Outgoing dependencies of `cp`.
    pub fn deps_out(&self, cp: Cp) -> &[(u32, Cp)] {
        self.out.row(self.num.index(cp))
    }

    /// The pre-flow in-edges of `cp` that carry `loc` — the definitions
    /// reaching its use: a run of the sorted row, found by bisection.
    pub fn defs_reaching(&self, cp: Cp, loc: u32) -> &[(u32, Cp)] {
        let row = self.deps_into(cp);
        let rank = self.loc_rank.get(loc as usize).copied().unwrap_or(u32::MAX);
        let run = &row[row.partition_point(|&(l, _)| self.loc_rank[l as usize] < rank)..];
        &run[..run.partition_point(|&(l, _)| l == loc)]
    }

    /// Location id → rank: its position among all the instance's locations
    /// in the order the rows keep. Total over the interned ids, so a
    /// location no edge carries — a dead store's target — has one too.
    pub(crate) fn loc_rank(&self) -> &[u32] {
        &self.loc_rank
    }

    /// The widening points (real definitions on dependency cycles), ascending.
    pub fn cycle_nodes(&self) -> impl Iterator<Item = Cp> + '_ {
        self.cycle.iter().map(|i| self.num.cp(i))
    }

    /// `cp`'s rank on the dependency graph: producers first, 0 off the graph.
    pub fn topo_rank(&self, cp: Cp) -> u32 {
        self.topo_rank[self.num.index(cp)]
    }

    /// Iterates all `(from, loc, to)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (Cp, u32, Cp)> + '_ {
        (0..self.num.len()).flat_map(move |i| {
            let (from, row) = (self.num.cp(i), self.out.row(i));
            row.iter().map(move |&(loc, to)| (from, loc, to))
        })
    }
}

/// What dependency generation needs from an analysis instance: per-point
/// def/use sets as dense location ids, the real/relay distinction, the
/// order of its locations, and the explicit interprocedural linking edges.
/// The interval instance's source is [`IntervalDepSource`]; the octagon
/// instance supplies packs.
pub trait DepSource {
    /// `D̂(cp)` as location ids (sorted).
    fn defs(&self, cp: Cp) -> &[u32];
    /// `Û(cp)` as location ids (sorted).
    fn uses(&self, cp: Cp) -> &[u32];
    /// Whether `loc` is a real (non-relay) def or use at `cp`.
    fn is_real(&self, cp: Cp, loc: u32) -> bool;
    /// How many location ids the instance interns: every id a set, an
    /// edge or a sparse row names is below it.
    fn loc_count(&self) -> usize;

    /// The order of two locations: the one the instance's sparse rows keep
    /// ([`crate::sparse::SparseSpec::loc_of`] ascending). Ids by default.
    fn cmp_locs(&self, a: u32, b: u32) -> Ordering {
        a.cmp(&b)
    }

    /// Where reaching-definition edges for a use of `loc` at `cp` should
    /// land. Most uses consume at the node itself; a call site redirects
    /// callee-used locations to the callee entries so pre-call values flow
    /// in without mixing with returned ones.
    fn use_routes(&self, cp: Cp, loc: u32) -> UseRoutes<'_> {
        let _ = (cp, loc);
        UseRoutes::SELF
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

impl UseRoutes<'_> {
    /// The ordinary routing: the use consumes at its own node.
    pub const SELF: UseRoutes<'static> = UseRoutes {
        self_edge: true,
        entries: &[],
    };
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
/// Per-procedure reaching-definition segments ([`Walks::proc_edges`])
/// merged by [`assemble`], which adds the interprocedural linking edges and
/// runs the bypass contraction.
pub fn generate_from<S: DepSource>(
    program: &Program,
    source: &S,
    options: DepGenOptions,
) -> DataDeps {
    let (mut walks, mut segments) = (Walks::new(source.loc_count()), Segments::new(program));
    for pid in program.procs.indices() {
        walks.proc_edges(program, source, pid, &mut segments);
    }
    let (walk_visits, walk_defs) = (walks.visits, walks.defs);
    drop(walks);
    let mut deps = assemble(program, source, options, segments);
    deps.stats.walk_visits = walk_visits;
    deps.stats.walk_defs = walk_defs;
    deps
}

/// An edge over dense point indices: `(from, to, is_return)`.
type Link = (u32, u32, bool);

/// A raw or final edge as [`assemble`] holds it, in 12 bytes: the location
/// id and the ends as dense point indices, the return-flow flag in the top
/// bit of `to`.
#[derive(Clone, Copy)]
struct Edge {
    loc: u32,
    from: u32,
    to: u32,
}

/// `Edge::to`'s return-flow bit.
const RETURN_FLOW: u32 = 1 << 31;

impl Edge {
    fn new(loc: u32, (from, to, is_return): Link) -> Edge {
        debug_assert!(from < RETURN_FLOW && to < RETURN_FLOW);
        let flag = if is_return { RETURN_FLOW } else { 0 };
        Edge {
            loc,
            from,
            to: to | flag,
        }
    }

    /// `(from, to)`, whatever the flavour.
    fn ends(self) -> (u32, u32) {
        (self.from, self.to & !RETURN_FLOW)
    }

    fn link(self) -> Link {
        let (from, to) = self.ends();
        (from, to, self.to & RETURN_FLOW != 0)
    }
}

/// The raw dependency edges of a program, in the order they are met: the
/// per-procedure segments ([`Walks::proc_edges`]) in procedure order, then
/// the source's linking edges, which [`assemble`] appends.
pub struct Segments {
    num: PointNumbering,
    edges: Vec<Edge>,
}

impl Segments {
    /// No edges yet, over `program`'s points.
    pub fn new(program: &Program) -> Segments {
        Segments {
            num: program.point_numbering(),
            edges: Vec::new(),
        }
    }

    /// Appends the edge `from →loc to` (`is_return`: callee exit → call
    /// site).
    pub fn push(&mut self, loc: u32, from: Cp, to: Cp, is_return: bool) {
        let at = |cp: Cp| self.num.index(cp) as u32;
        self.edges
            .push(Edge::new(loc, (at(from), at(to), is_return)));
    }

    /// The edges in order.
    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = DepEdge> + '_ {
        self.edges.iter().map(|e| {
            let (from, to, is_return) = e.link();
            let cp = |i: u32| self.num.cp(i as usize);
            (e.loc, cp(from), cp(to), is_return)
        })
    }
}

/// Merges the per-procedure segments (gathered in procedure order, for
/// determinism), adds the source's interprocedural linking edges, applies
/// the bypass contraction, and writes the relation's rows, widening points
/// and ranks.
///
/// Three orders decide `ranks`, hence the worklist's priorities: locations
/// as first met (`by_loc`), sources as first met in those locations' final
/// edges (`sources`; without the bypass, in the raw edges), and each
/// out-row in `(loc id, to)` order. The hash sets' iteration order follows
/// from their first-sight inserts and is part of the pinned trajectory:
/// keep those inserts as they are.
///
/// What it consumed is freed as it goes, so that at no time are two forms
/// of the edges live beside the relation: the raw edges are grouped by
/// location in place, each location's final edges are written over its
/// own raw ones (the contraction never grows a location's edges), and the
/// final edges are gone before `ranks` runs.
pub fn assemble<S: DepSource>(
    program: &Program,
    source: &S,
    options: DepGenOptions,
    mut segments: Segments,
) -> DataDeps {
    source.inter_edges(&mut |loc, from, to, is_return| segments.push(loc, from, to, is_return));
    let Segments {
        num,
        edges: mut raw,
    } = segments;
    raw.shrink_to_fit();
    let cps: Vec<Cp> = program.all_points().collect();

    // Every location ranked in the instance's order; the ones on an edge
    // also as first met.
    let mut locs: Vec<u32> = (0..source.loc_count() as u32).collect();
    locs.sort_unstable_by(|&a, &b| source.cmp_locs(a, b));
    let mut loc_rank = vec![0; locs.len()];
    for (rank, &loc) in locs.iter().enumerate() {
        loc_rank[loc as usize] = rank as u32;
    }
    let (mut on_edge, mut by_loc) = (BitSet::new(locs.len()), FxHashSet::default());
    for e in &raw {
        if on_edge.insert(e.loc as usize) {
            by_loc.insert(e.loc);
        }
    }
    drop(on_edge);
    // Without the bypass, sources are met in the raw edges' order, which
    // the grouping below does not keep.
    let raw_sources = (!options.bypass).then(|| sources_as_met(&cps, locs.len(), &by_loc, &raw));
    let starts = group_in_place(&mut raw, locs.len(), |e| loc_rank[e.loc as usize] as usize);
    let raw_edges = raw.len();

    // Each location's final edges, ascending and without repeats, written
    // over the raw edges already read: `ends[rank]..ends[rank + 1]`.
    let (mut contraction, mut links) = (Contraction::new(num.len()), Vec::new());
    let mut ends = Vec::with_capacity(locs.len() + 1);
    ends.push(0);
    for (rank, &loc) in locs.iter().enumerate() {
        let (start, end) = (starts[rank] as usize, starts[rank + 1] as usize);
        links.clear();
        links.extend(raw[start..end].iter().map(|e| e.link()));
        if options.bypass {
            contraction.run(|p| source.is_real(cps[p], loc), &mut links);
        } else {
            links.sort_unstable();
            links.dedup();
        }
        let at = ends[rank];
        assert!(
            at + links.len() <= end,
            "the contraction grew a location's edges"
        );
        for (slot, &link) in raw[at..].iter_mut().zip(&links) {
            *slot = Edge::new(loc, link);
        }
        ends.push(at + links.len());
    }
    drop((contraction, links, starts));
    let mut finals = raw;
    finals.truncate(ends[locs.len()]);
    finals.shrink_to_fit();
    let row = |rank: usize| &finals[ends[rank]..ends[rank + 1]];
    let sources = raw_sources.unwrap_or_else(|| {
        let (mut met, mut sources) = (BitSet::new(num.len()), FxHashSet::default());
        for &loc in &by_loc {
            for e in row(loc_rank[loc as usize] as usize) {
                if met.insert(e.from as usize) {
                    sources.insert(cps[e.from as usize]);
                }
            }
        }
        sources
    });
    drop(by_loc);

    // Scattered location by location in rank order: rows sorted by location,
    // then peer. An out-edge in both flavours is kept once. One counting
    // sort fills the three tables: count every edge's rows, then place.
    let n = num.len();
    let (mut out, mut into, mut into_ret) = (Scatter::new(n), Scatter::new(n), Scatter::new(n));
    let edges = || {
        (0..locs.len()).flat_map(|rank| {
            let row = row(rank);
            let twin = move |j: usize| j > 0 && row[j - 1].ends() == row[j].ends();
            (0..row.len()).map(move |j| (row[j].loc, row[j].link(), twin(j)))
        })
    };
    for (_, (a, b, k), twin) in edges() {
        if !twin {
            out.count(a as usize);
        }
        if k { &mut into_ret } else { &mut into }.count(b as usize);
    }
    for (l, (a, b, k), twin) in edges() {
        let (a, b) = (a as usize, b as usize);
        if !twin {
            out.place(a, (l, cps[b]));
        }
        if k { &mut into_ret } else { &mut into }.place(b, (l, cps[a]));
    }
    drop((finals, ends, locs));
    let (out, into, into_ret) = (out.finish(), into.finish(), into_ret.finish());
    let (cycle, topo_rank) = ranks(&num, &out, &sources, |p, loc| source.is_real(cps[p], loc));
    DataDeps {
        stats: DepGenStats {
            raw_edges,
            final_edges: out.items().len(),
            ..DepGenStats::default()
        },
        num,
        loc_rank,
        out,
        into,
        into_ret,
        cycle,
        topo_rank,
    }
}

/// The sources of `raw`'s edges, inserted in the order a walk over the
/// locations of `by_loc`, each location's edges in `raw`'s order, first
/// meets them: a point comes at the least `(location's turn, edge index)`
/// of its out-edges.
fn sources_as_met(cps: &[Cp], locs: usize, by_loc: &FxHashSet<u32>, raw: &[Edge]) -> FxHashSet<Cp> {
    let mut turn = vec![0u64; locs];
    for (i, &loc) in by_loc.iter().enumerate() {
        turn[loc as usize] = i as u64;
    }
    let mut first = vec![u64::MAX; cps.len()];
    for (i, e) in raw.iter().enumerate() {
        let key = turn[e.loc as usize] << 32 | i as u64;
        first[e.from as usize] = first[e.from as usize].min(key);
    }
    let mut met: Vec<(u64, u32)> = (first.iter().enumerate())
        .filter(|&(_, &key)| key != u64::MAX)
        .map(|(p, &key)| (key, p as u32))
        .collect();
    met.sort_unstable();
    let mut sources = FxHashSet::default();
    for (_, p) in met {
        sources.insert(cps[p as usize]);
    }
    sources
}

/// Permutes `items` in place so that their rows, `row(item) < n`, ascend:
/// a counting sort that cycles each item straight into its row's next free
/// slot instead of copying into a second array, so a row's items keep no
/// particular order. Returns the `n + 1` row offsets.
fn group_in_place<T: Copy>(items: &mut [T], n: usize, row: impl Fn(&T) -> usize) -> Vec<u32> {
    let mut starts = vec![0u32; n + 1];
    for item in items.iter() {
        starts[row(item) + 1] += 1;
    }
    for i in 1..=n {
        starts[i] += starts[i - 1];
    }
    let mut next = starts.clone();
    for r in 0..n {
        while next[r] < starts[r + 1] {
            // Carry the item at `r`'s next free slot to its own row, and the
            // one it displaces on, until one belongs at `r`.
            let mut item = items[next[r] as usize];
            let mut home = row(&item);
            while home != r {
                let slot = next[home] as usize;
                next[home] += 1;
                std::mem::swap(&mut item, &mut items[slot]);
                home = row(&item);
            }
            items[next[r] as usize] = item;
            next[r] += 1;
        }
    }
    starts
}

/// The per-procedure reaching-definition walks, in buffers reused across
/// procedures, and the work they did.
pub struct Walks {
    /// Location id → its slot in the procedure being walked; `u32::MAX` for
    /// every id it does not mention (reset after each procedure).
    slot_of: Vec<u32>,
    /// `(slot, is_use, node)`, one per mention of a location.
    mentions: Vec<(usize, bool, usize)>,
    seen: Vec<u32>,
    def_at: Vec<u32>,
    use_at: Vec<u32>,
    stack: Vec<usize>,
    reached: Vec<(usize, usize)>,
    /// Nodes entered, over every walk.
    visits: usize,
    /// Definitions walked from: one walk each.
    defs: usize,
}

impl Walks {
    /// Buffers for a source interning `locs` location ids.
    pub fn new(locs: usize) -> Walks {
        Walks {
            slot_of: vec![u32::MAX; locs],
            mentions: Vec::new(),
            seen: Vec::new(),
            def_at: Vec::new(),
            use_at: Vec::new(),
            stack: Vec::new(),
            reached: Vec::new(),
            visits: 0,
            defs: 0,
        }
    }

    /// Appends `pid`'s dependency segment to `sink`: the intraprocedural
    /// def→use edges of `pid` (already routed — a call site's callee-used
    /// locations land on the callee entries). Independent across
    /// procedures. A reaching-definition pass: from each def point of each
    /// location, one forward walk that stops behind the next definition
    /// (`D̂` is a must-definition, so it kills).
    pub fn proc_edges<S: DepSource>(
        &mut self,
        program: &Program,
        source: &S,
        pid: ProcId,
        sink: &mut Segments,
    ) {
        let proc = &program.procs[pid];
        let n = proc.nodes.len();

        // Collect the locations mentioned in this procedure (`locs_here`: id
        // → slot, each id inserted once, at its first mention) and, per
        // slot, its def and use points. Segments are emitted in the map's
        // iteration order, which orders `assemble`'s `by_loc`: fill it by
        // exactly these inserts.
        let (mut locs_here, mentions) = (FxHashMap::default(), &mut self.mentions);
        mentions.clear();
        for (v, cp) in proc
            .nodes
            .indices()
            .map(|nid| (nid.index(), Cp::new(pid, nid)))
        {
            let defs = source.defs(cp).iter().map(|&id| (id, false));
            for (id, is_use) in defs.chain(source.uses(cp).iter().map(|&id| (id, true))) {
                let slot = &mut self.slot_of[id as usize];
                if *slot == u32::MAX {
                    *slot = locs_here.len() as u32;
                    locs_here.insert(id, locs_here.len());
                }
                mentions.push((*slot as usize, is_use, v));
            }
        }
        for &id in locs_here.keys() {
            self.slot_of[id as usize] = u32::MAX;
        }
        let points = |is_use: bool| {
            let of = mentions.iter().filter(move |m| m.1 == is_use);
            Rows::scatter(locs_here.len(), of.map(|&(slot, _, v)| (slot, v)))
        };
        let (defs, uses) = (points(false), points(true));

        // Nothing to connect (as in an external procedure): skip the set-up.
        let connects = |slot: usize| !defs.row(slot).is_empty() && !uses.row(slot).is_empty();
        if !(0..locs_here.len()).any(connects) {
            return;
        }

        // `seen[v]` is the last walk that entered `v`. Nodes unreachable
        // from the entry keep `u32::MAX` and are never entered — they
        // neither receive nor forward a definition — yet a def *at* one
        // still walks into its reachable successors.
        let seen = &mut self.seen;
        seen.clear();
        seen.resize(n, u32::MAX);
        for v in sga_utils::graph::reverse_postorder(&proc.cfg_view(), proc.entry.index()) {
            seen[v] = 0;
        }
        let mut walk = 0u32;
        // `def_at[v] == mark` / `use_at[v] == mark`: `v` defines / uses the
        // location being processed.
        let (def_at, use_at) = (&mut self.def_at, &mut self.use_at);
        for marks in [&mut *def_at, &mut *use_at] {
            marks.clear();
            marks.resize(n, 0);
        }
        let succs = |v: usize| {
            proc.succs_of(sga_ir::NodeId::new(v))
                .iter()
                .map(|s| s.index())
        };
        let (stack, reached) = (&mut self.stack, &mut self.reached);

        for (mark, (&loc_id, &slot)) in (1u32..).zip(&locs_here) {
            let (def_points, use_points) = (defs.row(slot), uses.row(slot));
            if !connects(slot) {
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
                    self.visits += 1;
                    if use_at[v] == mark {
                        reached.push((v, d));
                    }
                    // A defining node is entered (a use-and-def node
                    // receives `d`, a loop delivers `d` to itself) but not
                    // walked past.
                    if def_at[v] != mark {
                        stack.extend(succs(v));
                    }
                }
            }
            self.defs += def_points.len();
            // Emit edges def → use, uses ascending and defs ascending within
            // a use, honoring the source's routing (call sites redirect
            // callee-used locations to the callee entries).
            reached.sort_unstable();
            for defs_of_use in reached.chunk_by(|a, b| a.0 == b.0) {
                let ucp = Cp::new(pid, sga_ir::NodeId::new(defs_of_use[0].0));
                let routes = source.use_routes(ucp, loc_id);
                for &(_, d) in defs_of_use.iter() {
                    let d = Cp::new(pid, sga_ir::NodeId::new(d));
                    if routes.self_edge {
                        sink.push(loc_id, d, ucp, false);
                    }
                    for &entry in routes.entries {
                        sink.push(loc_id, d, entry, false);
                    }
                }
            }
            reached.clear();
        }
    }
}

/// `pid`'s dependency segment alone ([`Walks::proc_edges`]).
#[cfg(test)]
pub(crate) fn proc_dep_edges<S: DepSource>(
    program: &Program,
    source: &S,
    pid: ProcId,
) -> Vec<DepEdge> {
    let mut sink = Segments::new(program);
    Walks::new(source.loc_count()).proc_edges(program, source, pid, &mut sink);
    sink.iter().collect()
}

/// The interval instance's [`DepSource`]: [`DefUse`]'s id rows plus the
/// call-site ↔ callee linking of §5.
pub struct IntervalDepSource<'a> {
    program: &'a Program,
    pre: &'a PreAnalysis,
    du: &'a DefUse,
    routes: Routes,
}

impl<'a> IntervalDepSource<'a> {
    /// Precomputes the call-site routing.
    pub fn new(program: &'a Program, pre: &'a PreAnalysis, du: &'a DefUse) -> Self {
        let id = |l: &AbsLoc| du.locs.id(l);
        let use_ids: Vec<Vec<u32>> = (du.summary_uses.iter())
            .map(|s| s.iter().filter_map(id).collect())
            .collect();
        let mut routed = Vec::new();
        for (cp, t) in internal_calls(program, pre) {
            let entry = Cp::new(t, program.procs[t].entry);
            routed.extend(use_ids[t.index()].iter().map(|&l| (cp, l, entry)));
        }
        drop(use_ids);
        // The call keeps its self-edge for real uses (arguments, pointer
        // bases) and for the pre-join of callee-defined (spurious-def)
        // locations.
        let has = |set: &[u32], id| set.binary_search(&id).is_ok();
        let consumes = |cp, id| has(du.real_ids(cp), id) || has(du.def_ids(cp), id);
        let routes = Routes::new(&program.point_numbering(), routed, consumes);
        IntervalDepSource {
            program,
            pre,
            du,
            routes,
        }
    }
}

/// Every `(call site, internal target)` of the program's defined
/// procedures, by call site, then target.
fn internal_calls<'p>(
    program: &'p Program,
    pre: &'p PreAnalysis,
) -> impl Iterator<Item = (Cp, ProcId)> + 'p {
    let defined = |cp: &Cp| !program.procs[cp.proc].is_external;
    let call = |cp: &Cp| matches!(program.cmd(*cp), Cmd::Call { .. });
    (program.all_points().filter(defined).filter(call)).flat_map(move |cp| {
        let targets = pre.call_targets(cp).iter();
        targets
            .filter(|&&t| !program.procs[t].is_external)
            .map(move |&t| (cp, t))
    })
}

impl DepSource for IntervalDepSource<'_> {
    fn defs(&self, cp: Cp) -> &[u32] {
        self.du.def_ids(cp)
    }

    fn uses(&self, cp: Cp) -> &[u32] {
        self.du.use_ids(cp)
    }

    fn is_real(&self, cp: Cp, loc: u32) -> bool {
        self.du.real_ids(cp).binary_search(&loc).is_ok()
    }

    fn loc_count(&self) -> usize {
        self.du.locs.len()
    }

    fn cmp_locs(&self, a: u32, b: u32) -> Ordering {
        self.du.locs.loc(a).cmp(&self.du.locs.loc(b))
    }

    fn use_routes(&self, cp: Cp, loc: u32) -> UseRoutes<'_> {
        self.routes.get(cp, loc)
    }

    /// Parameters flow call → entry; callee-used locations flow from their
    /// reaching definitions straight to the entry (routed); callee-defined
    /// ones and the return value flow back exit → call. Per call site and
    /// target, the parameters, then the definitions.
    fn inter_edges(&self, sink: &mut dyn FnMut(u32, Cp, Cp, bool)) {
        let id = |l: &AbsLoc| self.du.locs.id(l);
        for (cp, t) in internal_calls(self.program, self.pre) {
            let callee = &self.program.procs[t];
            let (entry, exit) = (Cp::new(t, callee.entry), Cp::new(t, callee.exit));
            for l in callee.params.iter().filter_map(|&p| id(&AbsLoc::Var(p))) {
                sink(l, cp, entry, false);
            }
            let ret = id(&AbsLoc::Var(callee.ret_var));
            for l in self.du.summary_defs[t].iter().filter_map(id).chain(ret) {
                sink(l, exit, cp, true);
            }
        }
    }
}

/// The call sites' [`UseRoutes`]: per point, the locations whose uses route
/// (also) to callee entries — whether the call consumes the value too, and
/// a list of entries — as rows over the point numbering, each ascending by
/// location. A call site keeps each distinct entry list once (a site with
/// one target, one list).
pub(crate) struct Routes {
    num: PointNumbering,
    /// `(location, list)`, the list's top bit set where the call consumes
    /// the value too.
    rows: Rows<(u32, u32)>,
    lists: Rows<Cp>,
}

/// The top bit of a [`Routes`] row entry's list: the call consumes.
const CONSUMES: u32 = 1 << 31;

impl Routes {
    /// Routes from `(call site, location, callee entry)` triples listed by
    /// call site, then target; `consumes(cp, loc)` is whether the call
    /// keeps its own edge for `loc`.
    pub(crate) fn new(
        num: &PointNumbering,
        mut routed: Vec<(Cp, u32, Cp)>,
        consumes: impl Fn(Cp, u32) -> bool,
    ) -> Routes {
        // Stable: a location's entries stay in target order.
        routed.sort_by_key(|&(cp, id, _)| (cp, id));
        let (mut rows, mut lists) = (Rows::default(), Rows::default());
        for site in routed.chunk_by(|a, b| a.0 == b.0) {
            let (cp, first) = (site[0].0, lists.len());
            rows.pad_to(num.index(cp));
            rows.push_row(site.chunk_by(|a, b| a.1 == b.1).map(|run| {
                let entries = run.iter().map(|&(.., entry)| entry);
                let same = |&list: &usize| lists.row(list).iter().copied().eq(entries.clone());
                let list = (first..lists.len()).find(same).unwrap_or_else(|| {
                    lists.push_row(entries);
                    lists.len() - 1
                });
                let id = run[0].1;
                (
                    id,
                    list as u32 | if consumes(cp, id) { CONSUMES } else { 0 },
                )
            }));
        }
        rows.pad_to(num.len());
        Routes {
            num: num.clone(),
            rows,
            lists,
        }
    }

    /// Where uses of `loc` at `cp` land.
    pub(crate) fn get(&self, cp: Cp, loc: u32) -> UseRoutes<'_> {
        let row = self.rows.row(self.num.index(cp));
        match row.binary_search_by_key(&loc, |route| route.0) {
            Ok(at) => UseRoutes {
                self_edge: row[at].1 & CONSUMES != 0,
                entries: self.lists.row((row[at].1 & !CONSUMES) as usize),
            },
            Err(_) => UseRoutes::SELF,
        }
    }
}

/// One end of an edge in [`Contraction`]: the peer's local index and the
/// return-flow flag of the edge's final hop, preserved across contraction.
type End = (u32, bool);

/// The bypass contraction of one location at a time, in buffers reused
/// across locations: points numbered densely in ascending order (which the
/// pending stack and the result rely on), `is_real` asked once per point,
/// in- and out-ends one sorted vector per local index that keeps its
/// capacity: as many as the most points one location has.
struct Contraction {
    /// Point → local index while a location is contracted, `u32::MAX`
    /// (unseen) otherwise.
    local: Vec<u32>,
    points: Vec<u32>,
    real: Vec<bool>,
    outs: Vec<Vec<End>>,
    ins: Vec<Vec<End>>,
    pending: Vec<u32>,
    /// The ends one splice merges in, and its output (swapped with the
    /// list it replaces).
    add: Vec<End>,
    scratch: Vec<End>,
}

impl Contraction {
    /// Buffers for a program of `points` points.
    fn new(points: usize) -> Contraction {
        Contraction {
            local: vec![u32::MAX; points],
            points: Vec::new(),
            real: Vec::new(),
            outs: Vec::new(),
            ins: Vec::new(),
            pending: Vec::new(),
            add: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Replaces one location's `links` by their contraction, ascending and
    /// without repeats: relay chains contracted per §5's optimization,
    /// iterated to convergence (handles relay cycles from recursion).
    fn run(&mut self, is_real: impl Fn(usize) -> bool, links: &mut Vec<Link>) {
        /// `ends` without its ends at `gone`, merged with `add` (ascending,
        /// without repeats): one pass, however many ends a hub has.
        fn splice(ends: &mut Vec<End>, gone: u32, add: &[End], scratch: &mut Vec<End>) {
            scratch.clear();
            let mut add = add.iter().copied().peekable();
            for &end in ends.iter().filter(|end| end.0 != gone) {
                while let Some(new) = add.next_if(|&new| new <= end) {
                    if new != end {
                        scratch.push(new);
                    }
                }
                scratch.push(end);
            }
            scratch.extend(add);
            std::mem::swap(ends, scratch);
        }
        /// The index of each peer's first end (an edge of both flavours is
        /// two ends).
        fn firsts(ends: &[End]) -> impl Iterator<Item = usize> + '_ {
            (0..ends.len()).filter(move |&i| i == 0 || ends[i - 1].0 != ends[i].0)
        }
        let (local, points, real) = (&mut self.local, &mut self.points, &mut self.real);
        // The distinct endpoints, stamped as they are met, then ascending.
        points.clear();
        for &(a, b, _) in links.iter() {
            for p in [a, b] {
                if local[p as usize] == u32::MAX {
                    local[p as usize] = 0;
                    points.push(p);
                }
            }
        }
        points.sort_unstable();
        for (i, &p) in points.iter().enumerate() {
            local[p as usize] = i as u32;
        }
        real.clear();
        real.extend(points.iter().map(|&p| is_real(p as usize)));
        let n = points.len();
        for (a, b, _) in links.iter_mut() {
            (*a, *b) = (local[*a as usize], local[*b as usize]);
        }
        for &p in points.iter() {
            local[p as usize] = u32::MAX;
        }
        if self.outs.len() < n {
            self.outs.resize_with(n, Vec::new);
            self.ins.resize_with(n, Vec::new);
        }
        let (outs, ins) = (&mut self.outs[..n], &mut self.ins[..n]);
        outs.iter_mut().chain(ins.iter_mut()).for_each(Vec::clear);
        // A relay self-loop forwards a value to itself: a no-op for
        // idempotent joins; dropping it avoids spurious widening cycles.
        for &(a, b, k) in links.iter() {
            if a != b || real[a as usize] {
                outs[a as usize].push((b, k));
            }
        }
        // Each out-list ascending and without repeats; the in-lists, filled
        // from them in that order, are too.
        for (a, ends) in outs.iter_mut().enumerate() {
            ends.sort_unstable();
            ends.dedup();
            for &(b, k) in ends.iter() {
                ins[b as usize].push((a as u32, k));
            }
        }

        // Contract relays greedily while it does not grow the edge set
        // (in·out ≤ in+out, i.e. a chain or a fan): the paper's a →l b →l c
        // rule generalized. Hub relays (m×n) stay; the sparse engine simply
        // forwards through them at run time.
        let (pending, add, scratch) = (&mut self.pending, &mut self.add, &mut self.scratch);
        pending.clear();
        pending.extend(0..n as u32);
        while let Some(b) = pending.pop() {
            let b = b as usize;
            if real[b] {
                continue;
            }
            let in_deg = ins[b].len();
            let out_deg = outs[b].len();
            if in_deg == 0 || out_deg == 0 || in_deg * out_deg > in_deg + out_deg {
                continue;
            }
            let mut in_edges = std::mem::take(&mut ins[b]);
            let mut out_edges = std::mem::take(&mut outs[b]);
            // Contracting b out of a relay cycle a → b → a would produce a
            // relay self-loop — a forwarding no-op, drop it. A *real* a
            // keeps its self-loop: it is genuine feedback and must stay a
            // widening point.
            let keeps = |a: u32, c: u32| a != c || real[a as usize];
            // Each in-neighbour (once, whatever its flavours) reaches b's
            // out-neighbours directly, and each out-neighbour is reached
            // from b's in-neighbours, with the flavour of its own edge.
            for i in firsts(&in_edges) {
                let a = in_edges[i].0;
                add.clear();
                add.extend(out_edges.iter().filter(|&&(c, _)| keeps(a, c)));
                splice(&mut outs[a as usize], b as u32, add, scratch);
            }
            for i in firsts(&out_edges) {
                let c = out_edges[i].0;
                let flavours = out_edges[i..].iter().take_while(|end| end.0 == c);
                add.clear();
                for j in firsts(&in_edges).filter(|&j| keeps(in_edges[j].0, c)) {
                    add.extend(flavours.clone().map(|&(_, kc)| (in_edges[j].0, kc)));
                }
                splice(&mut ins[c as usize], b as u32, add, scratch);
            }
            // Degrees of the neighbours changed; they may be contractible now.
            pending.extend(in_edges.iter().map(|&(a, _)| a));
            pending.extend(out_edges.iter().map(|&(c, _)| c));
            in_edges.clear();
            out_edges.clear();
            (ins[b], outs[b]) = (in_edges, out_edges);
        }

        // Ascending and duplicate-free as the indices are.
        links.clear();
        for (a, ends) in outs.iter().enumerate() {
            links.extend(
                ends.iter()
                    .map(|&(b, k)| (points[a], points[b as usize], k)),
            );
        }
    }
}

/// The widening points and each point's rank in the SCC condensation
/// (producers first), nodes numbered as `sources`, then their `(loc id,
/// to)`-ordered out-edges, meet them. Only *real* cycle nodes widen: a relay
/// cannot generate an ascending chain, and widening there would make
/// precision depend on how many relay hops survive contraction.
fn ranks(
    num: &PointNumbering,
    out: &Rows<(u32, Cp)>,
    sources: &FxHashSet<Cp>,
    is_real: impl Fn(usize, u32) -> bool,
) -> (BitSet, Vec<u32>) {
    let widens = |p: usize| out.row(p).iter().any(|&(loc, _)| is_real(p, loc));
    let mut cycle = BitSet::new(num.len());
    let (mut node_of, mut points) = (vec![u32::MAX; num.len()], Vec::new());
    let mut id_of = |p: usize| {
        if node_of[p] == u32::MAX {
            node_of[p] = points.len() as u32;
            points.push(p);
        }
        node_of[p]
    };
    // A node's successors are one run of `graph.succs`: a source's
    // out-edges, numbered as met, its own number taken at its first edge.
    let out_degree = sources.iter().map(|&from| out.row(num.index(from)).len());
    let mut graph = Runs {
        succs: Vec::with_capacity(out_degree.sum()),
        run_of: Vec::new(),
    };
    let mut row = Vec::new();
    for &from in sources {
        let a = num.index(from);
        row.clear();
        row.extend(out.row(a).iter().map(|&(loc, to)| (loc, num.index(to))));
        row.sort_unstable();
        let (start, mut node) = (graph.succs.len() as u32, None);
        for &(_, b) in &row {
            if a != b {
                node.get_or_insert_with(|| id_of(a));
                graph.succs.push(id_of(b));
            } else if widens(a) {
                cycle.insert(a);
            }
        }
        if let Some(node) = node.map(|node| node as usize) {
            if graph.run_of.len() <= node {
                graph.run_of.resize(node + 1, (0, 0));
            }
            graph.run_of[node] = (start, graph.succs.len() as u32);
        }
    }
    graph.run_of.resize(points.len(), (0, 0));
    drop((node_of, row));
    let scc = Scc::compute(&graph);
    drop(graph);
    let mut rank = vec![0; num.len()];
    for (i, &p) in points.iter().enumerate() {
        if scc.in_cycle(i) && widens(p) {
            cycle.insert(p);
        }
        // Tarjan numbers components in reverse topological order (an SCC
        // completes after everything it reaches), so invert for
        // producers-first ranks.
        rank[p] = (scc.len() - scc.component[i]) as u32;
    }
    (cycle, rank)
}

/// [`ranks`]' graph: node `v`'s successors are `succs[run_of[v].0 ..
/// run_of[v].1]`.
struct Runs {
    succs: Vec<u32>,
    run_of: Vec<(u32, u32)>,
}

impl DiGraph for Runs {
    fn num_nodes(&self) -> usize {
        self.run_of.len()
    }

    fn successors(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        let (start, end) = self.run_of[node];
        let run = &self.succs[start as usize..end as usize];
        run.iter().map(|&w| w as usize)
    }
}

#[cfg(test)]
impl DataDeps {
    /// Whether `from →loc to` is present (either flavour).
    pub(crate) fn has(&self, from: Cp, loc: u32, to: Cp) -> bool {
        self.deps_out(from).contains(&(loc, to))
    }

    /// A relation over `program` holding exactly the pre-flow `edges`
    /// `(from, loc, to)`, its rows in `key`'s location order, with widening
    /// points `cycle` and `order`'s points ranked 1, 2, … after every other.
    /// Location ids run `0..=100`.
    pub(crate) fn hand_built(
        program: &Program,
        edges: &[(Cp, u32, Cp)],
        key: fn(u32) -> u32,
        cycle: &[Cp],
        order: &[Cp],
    ) -> DataDeps {
        struct Given<'e>(&'e [(Cp, u32, Cp)], fn(u32) -> u32);
        impl DepSource for Given<'_> {
            fn defs(&self, _: Cp) -> &[u32] {
                &[]
            }
            fn uses(&self, _: Cp) -> &[u32] {
                &[]
            }
            fn is_real(&self, _: Cp, _: u32) -> bool {
                true
            }
            fn loc_count(&self) -> usize {
                101
            }
            fn cmp_locs(&self, a: u32, b: u32) -> Ordering {
                (self.1)(a).cmp(&(self.1)(b))
            }
            fn inter_edges(&self, sink: &mut dyn FnMut(u32, Cp, Cp, bool)) {
                for &(from, loc, to) in self.0 {
                    sink(loc, from, to, false);
                }
            }
        }
        let mut deps = generate_from(program, &Given(edges, key), DepGenOptions { bypass: false });
        deps.cycle = BitSet::new(deps.num.len());
        for &cp in cycle {
            deps.cycle.insert(deps.num.index(cp));
        }
        deps.topo_rank.fill(0);
        for (rank, &cp) in (1..).zip(order) {
            deps.topo_rank[deps.num.index(cp)] = rank;
        }
        deps
    }

    /// This relation without the edge `from →loc to`, in either flavour.
    pub(crate) fn without(&self, from: Cp, loc: u32, to: Cp) -> DataDeps {
        let drop = |rows: &Rows<(u32, Cp)>, at: Cp, gone: (u32, Cp)| {
            let mut kept = Rows::default();
            for i in 0..rows.len() {
                let row = rows.row(i).iter().copied();
                kept.push_row(row.filter(|&e| i != self.num.index(at) || e != gone));
            }
            kept
        };
        DataDeps {
            num: self.num.clone(),
            loc_rank: self.loc_rank.clone(),
            out: drop(&self.out, from, (loc, to)),
            into: drop(&self.into, to, (loc, from)),
            into_ret: drop(&self.into_ret, to, (loc, from)),
            cycle: self.cycle.clone(),
            topo_rank: self.topo_rank.clone(),
            stats: self.stats,
        }
    }
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
            s.deps.deps_out(x_def)
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
            s.deps.cycle_nodes().any(|cp| cp == incr),
            "loop increment must be a widening point: {:?}",
            s.deps.cycle_nodes().collect::<Vec<_>>()
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
            s.deps.deps_out(x_def)
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

    /// [`DataDeps::defs_reaching`] bisects to the run a filter of the
    /// whole in-edge row finds, for every point and location of a flat and
    /// of an SCC-heavy unit.
    #[test]
    fn defs_reaching_is_the_filtered_in_edge_row() {
        for max_scc in [2, 28] {
            let config = sga_cgen::GenConfig {
                seed: 65261,
                target_loc: 800,
                functions: 32,
                globals: 16,
                max_scc,
                ..sga_cgen::GenConfig::default()
            };
            let program = parse(&sga_cgen::generate(&config)).expect("parses");
            let pre = preanalysis::run(&program);
            let du = defuse::compute(&program, &pre);
            let deps = generate(&program, &pre, &du, DepGenOptions::default());
            let mut runs = 0;
            for cp in program.all_points() {
                for loc in 0..du.locs.len() as u32 + 1 {
                    let row = deps.deps_into(cp).iter();
                    let want: Vec<_> = row.filter(|e| e.0 == loc).copied().collect();
                    assert_eq!(
                        deps.defs_reaching(cp, loc),
                        want,
                        "max_scc {max_scc}: {cp}, {loc}"
                    );
                    runs += usize::from(!want.is_empty());
                }
            }
            assert!(runs > 1000, "max_scc {max_scc}: only {runs} runs");
        }
    }

    #[test]
    fn recursive_function_has_cyclic_param_dependency() {
        let s = setup(
            "int f(int n) { if (n <= 0) return 0; return f(n - 1); }
             int main() { return f(9); }",
        );
        assert!(
            s.deps.cycle_nodes().next().is_some(),
            "recursion must create dep cycles"
        );
    }
}
