//! The sparse fixpoint engine (§2.7).
//!
//! Computes `lfp F̂_s` where
//! `F̂_s(X)(c) = f̂_c(⊔ { X(c_d)|ₗ : c_d →l c })` — values arrive along data
//! dependencies, not control flow. A point's stored state binds only its
//! `D̂(c)` locations, which is where the memory savings come from: the sum of
//! all sparse states is proportional to the number of definitions, not
//! `|C| × |L̂|`.
//!
//! Widening happens at the control points that participate in dependency
//! cycles (loop-carried definitions, recursion) — the sparse counterpart of
//! the dense engine's WTO heads.
//!
//! A requeue carries the locations that moved. A pop whose moved locations
//! the point's command merely hands on ([`SparseSpec::forwards`] — call sites,
//! procedure entries and exits, the hubs §5's bypass cannot contract) joins
//! those locations' in-edge groups and patches the stored row in place
//! instead of gathering every in-edge and running the transfer; the
//! descent's opening round computes only at cycle heads. The pop sequence —
//! and with it every row, `iterations` and `narrowing_rounds` — is the one
//! whole evaluations produce (DESIGN.md, "Sparse engine").

use crate::budget::Budget;
use crate::depgen::DataDeps;
use crate::depstore::{CsrDeps, DepStore, Worklist};
use crate::icfg::Icfg;
use crate::stats::FixWork;
use crate::widening::WideningPlan;
use sga_domains::lattice::Lattice;
use sga_ir::{Cp, PointNumbering, Program};
use sga_utils::{BitSet, FxHashMap, PMap};
use std::cmp::Ordering;
use std::fmt;
use std::hash::Hash;

/// One point's bindings, in strictly ascending location order.
pub type Row<L, V> = Vec<(L, V)>;

/// The per-instance pieces of a sparse analysis.
pub trait SparseSpec {
    /// Abstract locations (interval: [`sga_domains::AbsLoc`]; octagon:
    /// variable packs).
    type L: Copy + Ord + Hash + fmt::Debug;
    /// Abstract values per location.
    type V: Lattice + fmt::Debug;

    /// Decodes a dependency-edge location id.
    fn loc_of(&self, id: u32) -> Self::L;

    /// The sparse node transfer, rows in and row out: given the assembled
    /// input bindings (covering `Û(cp)`), produce the output bindings for
    /// `D̂(cp)` — strictly ascending, like its inputs. A location the
    /// transfer leaves out is *absent*, which the engine keeps apart from
    /// one bound to `⊥`.
    ///
    /// `pre` holds values arriving over ordinary def→use dependencies;
    /// `ret` holds values returning from callee exits (non-empty only at
    /// call sites). Argument expressions must be evaluated against `pre`;
    /// relayed locations take `pre ⊔ ret` ([`join_rows`]).
    fn transfer(
        &self,
        cp: Cp,
        pre: &[(Self::L, Self::V)],
        ret: &[(Self::L, Self::V)],
    ) -> Row<Self::L, Self::V>;

    /// The state entering `main` (parameter seeds), as initial bindings for
    /// the main-entry point.
    fn initial(&self) -> Row<Self::L, Self::V>;

    /// Whether `cp`'s command merely hands `l` on — the question the bypass
    /// contraction asks through [`crate::depgen::DepSource`]'s `is_real` and
    /// `defs`, asked again at run time. `true` is a promise about
    /// [`SparseSpec::transfer`]: `l` is in `D̂(cp)`, the transfer neither
    /// reads nor writes it, and its output binds it to `pre ⊔ ret` if the
    /// instance [keeps](SparseSpec::keeps) that value. The default promises
    /// nothing, so every pop runs the transfer.
    fn forwards(&self, cp: Cp, l: &Self::L) -> bool {
        let _ = (cp, l);
        false
    }

    /// Whether [`SparseSpec::transfer`] would keep the forwarded value `v`
    /// in its output (the instances drop `⊥`). Asked of forwarded locations
    /// only.
    fn keeps(&self, v: &Self::V) -> bool {
        let _ = v;
        true
    }
}

/// Sparse analysis result: `D̂(c)`-restricted states per point.
#[derive(Debug)]
pub struct SparseResult<L: Copy + Ord, V: Clone> {
    /// Output bindings of every evaluated control point.
    pub values: FxHashMap<Cp, PMap<L, V>>,
    /// Points the solve was seeded with: the ones its store orders
    /// ([`Worklist::points`]).
    pub points: usize,
    /// Pops of the ascending phase.
    pub iterations: usize,
    /// Pops of the descending phase.
    pub narrowing_rounds: usize,
    /// Whether the analysis budget ran out. A degraded result is still a
    /// sound post-fixpoint — the remaining ascent used immediate plain
    /// widening and the descending phase was skipped — but it is less
    /// precise than the unbounded fixpoint.
    pub degraded: bool,
    /// Pops by kind and in-edges read.
    pub work: FixWork,
}

impl<L: Copy + Ord, V: Clone + Lattice> SparseResult<L, V> {
    /// The value of `l` in `cp`'s output bindings (⊥ if absent).
    pub fn value(&self, cp: Cp, l: &L) -> V {
        self.values
            .get(&cp)
            .and_then(|m| m.get(l).cloned())
            .unwrap_or_else(V::bottom)
    }
}

/// One direction of the dependency relation, resolved once per solve onto
/// the dense point numbering: a CSR whose row `i` holds the edges of point
/// `i` as `(location id, peer point index)`, stably sorted by *location* —
/// same-location edges sit together, still in the store's peer order, so
/// a gather joins them in the order it always did.
struct EdgeRows {
    offsets: Vec<u32>,
    edges: Vec<(u32, u32)>,
}

impl EdgeRows {
    fn resolve<'d, L: Ord>(
        program: &Program,
        num: &PointNumbering,
        row_of: impl Fn(Cp) -> &'d [(u32, Cp)],
        loc_of: impl Fn(u32) -> L,
    ) -> EdgeRows {
        let mut offsets = Vec::with_capacity(num.len() + 1);
        let mut edges = Vec::new();
        offsets.push(0);
        let narrow = |n: usize| u32::try_from(n).expect("points and edges are counted in u32");
        for cp in program.all_points() {
            let start = edges.len();
            edges.extend(
                row_of(cp)
                    .iter()
                    .map(|&(loc, peer)| (loc, narrow(num.index(peer)))),
            );
            edges[start..].sort_by_key(|&(loc, _)| loc_of(loc));
            offsets.push(narrow(edges.len()));
        }
        EdgeRows { offsets, edges }
    }

    fn row(&self, i: usize) -> &[(u32, u32)] {
        &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// What one pop computed for its point.
enum Candidate<L, V> {
    /// The transfer's output row.
    Whole(Row<L, V>),
    /// Forwarded: the candidates of the dirty locations alone, ascending
    /// (`None`: not bound); every other location is as stored.
    Dirty(Vec<(L, Option<V>)>),
}

/// A candidate merged with the point's stored row — the row to store, or
/// the entries to patch into it — and the locations where the two differ
/// (ascending).
struct Update<L, V> {
    stored: Candidate<L, V>,
    changed: Vec<L>,
}

impl<L: Copy + Ord, V: Clone + PartialEq> Candidate<L, V> {
    /// Merges with the stored row `old`, with `f(old value, new value)`
    /// where both bind a location. Under `union` a location only `old` binds
    /// stays (a cycle head accumulates); otherwise it goes (any other output
    /// *replaces* the row). Changed is every location bound on one side only
    /// — unless kept — or whose value `f` moved.
    fn merge(&self, old: &[(L, V)], union: bool, f: impl Fn(&V, &V) -> V) -> Update<L, V> {
        let new = match self {
            Candidate::Whole(new) => return merge_rows(old, new, union, f),
            Candidate::Dirty(new) => new,
        };
        let mut patch = Vec::with_capacity(new.len());
        let mut changed = Vec::new();
        for (l, n) in new {
            let o = find(old, l).ok().map(|at| &old[at].1);
            let v = match (o, n) {
                (Some(_), None) if union => continue,
                (Some(o), Some(n)) => Some(f(o, n)),
                _ => n.clone(),
            };
            if v.as_ref() != o {
                changed.push(*l);
            }
            patch.push((*l, v));
        }
        Update {
            stored: Candidate::Dirty(patch),
            changed,
        }
    }
}

/// Where `l` is bound in the ascending `row`, or where it would go.
pub(crate) fn find<L: Ord, V>(row: &[(L, V)], l: &L) -> Result<usize, usize> {
    row.binary_search_by(|(k, _)| k.cmp(l))
}

/// `a ⊔ b`: two ascending rows merged into one, `a`'s value on the left of
/// the join where both bind a location.
pub fn join_rows<L: Copy + Ord, V: Lattice>(a: &[(L, V)], b: &[(L, V)]) -> Row<L, V> {
    if b.is_empty() {
        return a.to_vec();
    }
    let mut row = Vec::with_capacity(a.len().max(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let side = a[i].0.cmp(&b[j].0);
        row.push(match side {
            Ordering::Less => a[i].clone(),
            Ordering::Greater => b[j].clone(),
            Ordering::Equal => (a[i].0, a[i].1.join(&b[j].1)),
        });
        i += usize::from(side != Ordering::Greater);
        j += usize::from(side != Ordering::Less);
    }
    row.extend_from_slice(&a[i..]);
    row.extend_from_slice(&b[j..]);
    row
}

/// [`Candidate::merge`] of a whole row: two ascending rows in one pass.
fn merge_rows<L: Copy + Ord, V: Clone + PartialEq>(
    old: &[(L, V)],
    new: &[(L, V)],
    union: bool,
    f: impl Fn(&V, &V) -> V,
) -> Update<L, V> {
    let mut row = Vec::with_capacity(old.len().max(new.len()));
    let mut changed = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < old.len() || j < new.len() {
        let side = match (old.get(i), new.get(j)) {
            (Some(o), Some(n)) => o.0.cmp(&n.0),
            (Some(_), None) => Ordering::Less,
            _ => Ordering::Greater,
        };
        match side {
            Ordering::Less if union => row.push(old[i].clone()),
            Ordering::Less => changed.push(old[i].0),
            Ordering::Greater => {
                changed.push(new[j].0);
                row.push(new[j].clone());
            }
            Ordering::Equal => {
                let v = f(&old[i].1, &new[j].1);
                if v != old[i].1 {
                    changed.push(old[i].0);
                }
                row.push((old[i].0, v));
            }
        }
        // `Less` consumed an `old` entry, `Greater` a `new` one, `Equal` both.
        i += usize::from(side != Ordering::Greater);
        j += usize::from(side != Ordering::Less);
    }
    Update {
        stored: Candidate::Whole(row),
        changed,
    }
}

#[cfg(test)]
thread_local! {
    /// Set by [`tests::forcing_whole`]: every pop is a whole evaluation —
    /// the engine before forwarding, by construction.
    static FORCE_WHOLE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The solver's working state: resolved edge rows, one value row per dense
/// point index, and the store's worklist.
struct Engine<'a, S: SparseSpec> {
    spec: &'a S,
    num: PointNumbering,
    main_entry: usize,
    into: EdgeRows,
    into_ret: EdgeRows,
    out: EdgeRows,
    /// `None` until a point's first evaluation, which stores its output
    /// as it is; a cycle head joins (and counts delay) from the second on.
    rows: Vec<Option<Row<S::L, S::V>>>,
    /// Per point, the locations whose input moved since its last pop, as
    /// [`Engine::commit`] met them (unordered, repeats). A pop takes its
    /// list, so none outlives it.
    dirty: Vec<Vec<S::L>>,
    worklist: Box<dyn Worklist + 'a>,
    work: FixWork,
}

impl<S: SparseSpec> Engine<'_, S> {
    /// What point `from` binds `l` to, if it does.
    fn bound(&self, from: u32, l: &S::L) -> Option<&S::V> {
        let row = self.rows[from as usize].as_ref()?;
        find(row, l).ok().map(|at| &row[at].1)
    }

    /// Joins the values arriving over `edges` into one ascending row: a
    /// single pass, each value joining into the last entry or opening the
    /// next. A source that does not bind the location contributes nothing.
    /// The row is sized by the locations `edges` names (ids are interned, so
    /// a run of one id is one location), not by how many edges carry them.
    fn gather(&self, edges: &[(u32, u32)]) -> Row<S::L, S::V> {
        let runs = edges.windows(2).filter(|w| w[0].0 != w[1].0).count();
        let mut acc: Row<S::L, S::V> = Vec::with_capacity(runs + usize::from(!edges.is_empty()));
        for &(loc_id, from) in edges {
            let l = self.spec.loc_of(loc_id);
            let Some(v) = self.bound(from, &l) else {
                continue;
            };
            match acc.last_mut() {
                Some((last, joined)) if *last == l => *joined = joined.join(v),
                _ => acc.push((l, v.clone())),
            }
        }
        acc
    }

    /// [`Engine::gather`]'s entry for `l` alone — the rows are sorted by
    /// location, so its edges are one run, joined in the same order — and
    /// the number of edges in the run.
    fn gather_one(&self, edges: &[(u32, u32)], l: &S::L) -> (Option<S::V>, usize) {
        let start = edges.partition_point(|&(id, _)| self.spec.loc_of(id) < *l);
        let group = edges[start..]
            .iter()
            .take_while(|&&(id, _)| self.spec.loc_of(id) == *l);
        let mut acc: Option<S::V> = None;
        let mut reads = 0;
        for &(_, from) in group {
            reads += 1;
            if let Some(v) = self.bound(from, l) {
                acc = Some(acc.map_or_else(|| v.clone(), |joined| joined.join(v)));
            }
        }
        (acc, reads)
    }

    /// Applies the transfer of point `i` to its gathered inputs.
    fn evaluate(&self, i: usize) -> Row<S::L, S::V> {
        let mut pre = self.gather(self.into.row(i));
        if i == self.main_entry {
            pre = join_rows(&self.spec.initial(), &pre);
        }
        let ret = self.gather(self.into_ret.row(i));
        let out = self.spec.transfer(self.num.cp(i), &pre, &ret);
        debug_assert!(
            out.windows(2).all(|w| w[0].0 < w[1].0),
            "transfer rows must be strictly ascending"
        );
        out
    }

    /// This pop's candidate for point `i`, whose dirty list it empties (the
    /// list keeps its capacity for the point's next requeue).
    fn candidate(&mut self, i: usize, whole: bool) -> Option<Candidate<S::L, S::V>> {
        let mut dirty = std::mem::take(&mut self.dirty[i]);
        let candidate = self.candidate_for(i, whole, &mut dirty);
        dirty.clear();
        self.dirty[i] = dirty;
        candidate
    }

    /// A first visit, the main entry (its seed joins the gather), a dirty
    /// location the command does not just forward, and `whole` are a whole
    /// evaluation. Otherwise no other location's candidate can have moved:
    /// with nothing dirty there is nothing to compute (`None`), else each
    /// dirty location gets what the transfer would give it — `pre ⊔ ret`,
    /// dropped unless kept.
    fn candidate_for(
        &mut self,
        i: usize,
        whole: bool,
        dirty: &mut Vec<S::L>,
    ) -> Option<Candidate<S::L, S::V>> {
        let cp = self.num.cp(i);
        #[cfg(test)]
        let whole = whole || FORCE_WHOLE.with(std::cell::Cell::get);
        let whole = whole
            || i == self.main_entry
            || self.rows[i].is_none()
            || !dirty.iter().all(|l| self.spec.forwards(cp, l));
        if whole {
            self.work.whole += 1;
            self.work.edge_reads += self.into.row(i).len() + self.into_ret.row(i).len();
            return Some(Candidate::Whole(self.evaluate(i)));
        }
        if dirty.is_empty() {
            self.work.skipped += 1;
            return None;
        }
        dirty.sort_unstable();
        dirty.dedup();
        self.work.forwarded += 1;
        self.work.forwarded_locs += dirty.len();
        let mut patch = Vec::with_capacity(dirty.len());
        for &l in dirty.iter() {
            let (pre, pre_reads) = self.gather_one(self.into.row(i), &l);
            let (ret, ret_reads) = self.gather_one(self.into_ret.row(i), &l);
            self.work.edge_reads += pre_reads + ret_reads;
            let v = match (pre, ret) {
                (Some(pre), Some(ret)) => Some(pre.join(&ret)),
                (pre, ret) => pre.or(ret),
            };
            patch.push((l, v.filter(|v| self.spec.keeps(v))));
        }
        Some(Candidate::Dirty(patch))
    }

    /// Stores a changed update — a whole row replaces the stored one, a
    /// patch edits it in place — and requeues the users of exactly the
    /// changed locations, each told which location moved: the out-edges are
    /// sorted by location, so each changed location's users are one run,
    /// found by bisecting what is left of the row. An unchanged candidate is
    /// dropped: the stored row keeps its values.
    fn commit(&mut self, i: usize, Update { stored, changed }: Update<S::L, S::V>) {
        if changed.is_empty() && self.rows[i].is_some() {
            return;
        }
        let mut users = self.out.row(i);
        for l in changed {
            let before = |&(id, _): &(u32, u32)| self.spec.loc_of(id) < l;
            users = &users[users.partition_point(before)..];
            let run = users.partition_point(|&(id, _)| self.spec.loc_of(id) == l);
            for &(_, to) in &users[..run] {
                self.worklist.push(to as usize);
                self.dirty[to as usize].push(l);
            }
            users = &users[run..];
        }
        match stored {
            Candidate::Whole(row) => self.rows[i] = Some(row),
            Candidate::Dirty(patch) => {
                let row = self.rows[i].as_mut().expect("forwarding follows a visit");
                for (l, v) in patch {
                    match (find(row, &l), v) {
                        (Ok(at), Some(v)) => row[at].1 = v,
                        (Ok(at), None) => drop(row.remove(at)),
                        (Err(at), Some(v)) => row.insert(at, (l, v)),
                        (Err(_), None) => {}
                    }
                }
            }
        }
    }
}

/// Runs the sparse analysis to its (narrowed) fixpoint.
///
/// `icfg` supplies worklist priorities (shared with the dense engines so
/// iteration orders are comparable); `deps` supplies edges and widening
/// points; `plan` selects the widening strategy: the first `plan.delay`
/// *changing* updates at each cycle head are plain joins (absorbing the
/// partial joins that trickle in through relay chains), after which
/// threshold widening (`widen_with`) takes over.
///
/// `budget` bounds the ascending phase. On exhaustion the solve *degrades
/// soundly*: every further cycle-head update applies the plain widening
/// operator immediately (no delay, no thresholds — still-moving bounds
/// escape to ±∞ in one step), the ascent runs to quiescence, and the
/// descending phase is skipped. The returned post-fixpoint over-approximates
/// the unbounded one and `degraded` is set.
///
/// The state is flat: points are numbered once, `deps`' edge rows are
/// resolved once into location-sorted `u32` arrays, and a point's bindings
/// are one sorted [`Row`]. Joining, widening and narrowing are linear merges of two rows
/// that report the changed locations, and only those locations' users are
/// requeued — each with the locations that moved, so a pop whose command
/// only forwards them ([`SparseSpec::forwards`]) merges those entries alone.
/// `iterations` and `narrowing_rounds` count pops, whatever a pop computed.
/// The trajectory depends on the pop order (see [`crate::depstore`]).
///
/// Both phases are seeded with exactly the points `deps`' worklist orders
/// ([`Worklist::points`]): every point of the program under
/// [`CsrDeps::build`], a subset under [`CsrDeps::over`]. A point outside it
/// is never evaluated and binds nothing in the result.
///
/// # Panics
///
/// Panics if the ascending phase exceeds its internal iteration backstop
/// even after degradation (a widening bug).
pub fn solve_with<S: SparseSpec, D: DepStore + ?Sized>(
    program: &Program,
    icfg: &Icfg,
    deps: &D,
    spec: &S,
    plan: &WideningPlan,
    budget: &Budget,
) -> SparseResult<S::L, S::V> {
    let num = program.point_numbering();
    let relation = deps.relation();
    let loc_of = |id| spec.loc_of(id);
    let mut cycle = BitSet::new(num.len());
    for &cp in &relation.cycle_nodes {
        cycle.insert(num.index(cp));
    }
    let mut engine = Engine {
        spec,
        main_entry: num.index(Cp::new(program.main, program.procs[program.main].entry)),
        into: EdgeRows::resolve(program, &num, |cp| relation.deps_into(cp), loc_of),
        into_ret: EdgeRows::resolve(program, &num, |cp| relation.deps_into_ret(cp), loc_of),
        out: EdgeRows::resolve(program, &num, |cp| relation.deps_out(cp), loc_of),
        rows: (0..num.len()).map(|_| None).collect(),
        dirty: vec![Vec::new(); num.len()],
        // Pops the pending point minimal in ((topo rank, ICFG priority), cp)
        // order.
        worklist: deps.make_worklist(program, icfg),
        work: FixWork::default(),
        num,
    };
    // Both phases start from every point the store orders, and only those.
    let seeds = engine.worklist.points().to_vec();
    for &i in &seeds {
        engine.worklist.push(i as usize);
    }

    let backstop = 2000usize.saturating_mul(seeds.len()).max(100_000);
    let mut iterations = 0usize;
    let mut meter = budget.start();
    let mut degraded = false;
    // Changing updates seen per cycle head, for delayed widening. Counting
    // only *changed* joins makes the count independent of how many no-op
    // requeues the evaluation order produces.
    let mut widen_delay = vec![0u32; engine.rows.len()];
    while let Some(i) = engine.worklist.pop() {
        let cp = engine.num.cp(i);
        iterations += 1;
        assert!(
            iterations <= backstop,
            "sparse fixpoint exceeded {backstop} iterations: widening failure at {cp}"
        );
        degraded |= meter.step();
        let Some(out) = engine.candidate(i, false) else {
            continue;
        };
        let update = match engine.rows[i].as_deref() {
            Some(old) if cycle.contains(i) => {
                let joined = out.merge(old, true, |o, n| o.join(n));
                if joined.changed.is_empty() {
                    joined
                } else if degraded {
                    // Over budget: widen immediately with the plain operator
                    // so every still-rising chain stabilizes in one step.
                    out.merge(old, true, |o, n| o.widen(n))
                } else if widen_delay[i] < plan.delay {
                    widen_delay[i] += 1;
                    joined
                } else {
                    out.merge(old, true, |o, n| o.widen_with(n, &plan.thresholds))
                }
            }
            old => out.merge(old.unwrap_or_default(), false, |_, n| n.clone()),
        };
        engine.commit(i, update);
    }

    // Descending (narrowing) phase: change-driven, like the ascending
    // phase, with a per-point evaluation cap to bound descent. Skipped
    // entirely when the budget ran out: the ascending result is already a
    // post-fixpoint, and descending work is exactly the precision-chasing
    // the budget said we cannot afford.
    const MAX_DESCENDS_PER_POINT: u8 = 4;
    let mut narrowing_rounds = 0usize;
    let mut desc_count = vec![0u8; engine.rows.len()];
    if !degraded {
        for &i in &seeds {
            engine.worklist.push(i as usize);
        }
    }
    while let Some(i) = engine.worklist.pop() {
        if desc_count[i] >= MAX_DESCENDS_PER_POINT {
            continue;
        }
        desc_count[i] += 1;
        narrowing_rounds += 1;
        // At ascending quiescence a row that is *replaced* equals its
        // transfer's output for the inputs as they are, so the opening pop
        // computes only at cycle heads, whose first narrowing can move them.
        let opening = desc_count[i] == 1 && cycle.contains(i);
        let Some(candidate) = engine.candidate(i, opening) else {
            continue;
        };
        let update = match engine.rows[i].as_deref() {
            // Narrow entries present in both; entries only in `old` keep
            // their value; entries only in the candidate are fresh
            // information. Threshold widening can overshoot finitely (the
            // clamp lands above the exact bound, and `narrow` refines only
            // infinite bounds), so under a threshold plan a candidate below
            // the stored value is accepted outright — a descending-iteration
            // step, still bounded by the per-point cap and sound because
            // every candidate re-applies the transfer to a post-fixpoint.
            Some(old) if cycle.contains(i) => candidate.merge(old, true, |o, n| {
                if !plan.thresholds.is_empty() && n.le(o) {
                    n.clone()
                } else {
                    o.narrow(n)
                }
            }),
            old => candidate.merge(old.unwrap_or_default(), false, |_, n| n.clone()),
        };
        engine.commit(i, update);
    }

    // Rows become maps one at a time, each row freed as its map is built.
    let values = program
        .all_points()
        .zip(engine.rows)
        .filter_map(|(cp, row)| Some((cp, PMap::from_sorted_vec(row?))))
        .collect();
    SparseResult {
        values,
        points: seeds.len(),
        iterations,
        narrowing_rounds,
        degraded,
        work: engine.work,
    }
}

/// Runs [`solve_with`] over `deps` behind the flat worklist ([`CsrDeps`]).
pub fn solve<S: SparseSpec>(
    program: &Program,
    icfg: &Icfg,
    deps: &DataDeps,
    spec: &S,
    plan: &WideningPlan,
    budget: &Budget,
) -> SparseResult<S::L, S::V> {
    let csr = CsrDeps::build(program, icfg, deps);
    solve_with(program, icfg, &csr, spec, plan, budget)
}

#[cfg(test)]
pub(crate) mod differential;
#[cfg(test)]
mod tests;
