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
//!
//! Inside the engine a location is its rank: its position in the
//! instance's order over every interned location (`DataDeps::loc_rank`),
//! so stored rows, dirty lists and changed lists hold one `u32` per
//! location, and bisecting a row or an edge run compares integers.
//! Locations of type [`SparseSpec::L`] appear only at the transfer's
//! boundary — the gathered `pre`/`ret` rows, and the output row merged into
//! the stored one.
//!
//! The solve's one output is those rows as the engine holds them:
//! [`solve_rows`] returns a [`SparseRows`], one rank-keyed row per dense
//! point plus the rank → location table, and its readers (the interval
//! checkers through `interval::Inputs`, the batch driver's values
//! fingerprint) bisect a row by rank. [`solve_with`] and [`solve`] are that
//! solve with one conversion at its boundary, the location-keyed [`PMap`]s
//! of [`SparseResult::values`], for the callers that read a map: the
//! octagon, the oracle and the tests.

use crate::budget::Budget;
use crate::depgen::DataDeps;
use crate::depstore::{CsrDeps, DepStore, Worklist};
use crate::icfg::Icfg;
use crate::stats::FixWork;
use crate::widening::WideningPlan;
use sga_domains::lattice::Lattice;
use sga_ir::{Cp, PointNumbering, Program};
use sga_utils::{FxHashMap, PMap};
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

    /// Whether `cp`'s command merely hands on the location with id `id` —
    /// the question the bypass contraction asks through
    /// [`crate::depgen::DepSource`]'s `is_real` and `defs`, asked again at
    /// run time, of the same dense id rows (no location is decoded).
    /// `true` is a promise about [`SparseSpec::transfer`]: the location is
    /// in `D̂(cp)`, the transfer neither reads nor writes it, and its output
    /// binds it to `pre ⊔ ret` if the instance [keeps](SparseSpec::keeps)
    /// that value. The default promises nothing, so every pop runs the
    /// transfer.
    fn forwards(&self, cp: Cp, id: u32) -> bool {
        let _ = (cp, id);
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

/// The sparse solve's answer as the engine holds it: per dense point, its
/// output row keyed by location rank (ascending), and the rank → location
/// table. A point the solve never evaluated has no row, which is apart
/// from an evaluated point that binds nothing.
#[derive(Clone, Debug)]
pub struct SparseRows<L, V> {
    num: PointNumbering,
    /// Dense point index → point.
    cps: Vec<Cp>,
    rows: Vec<Option<Row<u32, V>>>,
    /// Rank → location, ascending.
    locs: Vec<L>,
    /// Points the solve was seeded with: the ones its store orders
    /// ([`Worklist::points`]).
    pub points: usize,
    /// Pops of the ascending phase.
    pub iterations: usize,
    /// Pops of the descending phase.
    pub narrowing_rounds: usize,
    /// Whether the analysis budget ran out ([`SparseResult::degraded`]).
    pub degraded: bool,
    /// Pops by kind and in-edges read.
    pub work: FixWork,
}

impl<L: Copy + Ord, V> SparseRows<L, V> {
    /// Rows of `bindings`, each point's pairs in any order, over `program`'s
    /// points and the ascending rank → location table `locs`: the shape
    /// [`solve_rows`] returns, for an answer held as maps. A location
    /// `locs` does not hold is left out. The run counters are zero.
    pub fn from_bindings<B>(
        program: &Program,
        locs: Vec<L>,
        bindings: impl IntoIterator<Item = (Cp, B)>,
    ) -> SparseRows<L, V>
    where
        B: IntoIterator<Item = (L, V)>,
    {
        debug_assert!(locs.windows(2).all(|w| w[0] < w[1]), "ranks ascend");
        let num = program.point_numbering();
        let mut rows: Vec<Option<Row<u32, V>>> = (0..num.len()).map(|_| None).collect();
        for (cp, bound) in bindings {
            let mut row: Row<u32, V> = bound
                .into_iter()
                .filter_map(|(l, v)| Some((locs.binary_search(&l).ok()? as u32, v)))
                .collect();
            row.sort_unstable_by_key(|&(r, _)| r);
            rows[num.index(cp)] = Some(row);
        }
        SparseRows {
            cps: program.all_points().collect(),
            num,
            rows,
            locs,
            points: 0,
            iterations: 0,
            narrowing_rounds: 0,
            degraded: false,
            work: FixWork::default(),
        }
    }

    /// Rank → location: the location each row entry's rank names.
    pub fn locs(&self) -> &[L] {
        &self.locs
    }

    /// `cp`'s row (`None`: never evaluated).
    pub fn row(&self, cp: Cp) -> Option<&[(u32, V)]> {
        self.rows[self.num.index(cp)].as_deref()
    }

    /// What `cp` binds the location of rank `r` to, if it does.
    pub fn get(&self, cp: Cp, r: u32) -> Option<&V> {
        let row = self.row(cp)?;
        find(row, &r).ok().map(|at| &row[at].1)
    }

    /// Every evaluated point and its row, in point numbering order.
    pub fn iter(&self) -> impl Iterator<Item = (Cp, &[(u32, V)])> + '_ {
        let rows = self.cps.iter().zip(&self.rows);
        rows.filter_map(|(&cp, row)| Some((cp, row.as_deref()?)))
    }

    /// How many points the solve evaluated.
    pub fn evaluated(&self) -> usize {
        self.rows.iter().filter(|row| row.is_some()).count()
    }
}

impl<L: Copy + Ord, V: Clone> SparseRows<L, V> {
    /// The rows as location-keyed maps, one per evaluated point, each row
    /// freed as its map is built.
    pub fn into_pmaps(self) -> impl Iterator<Item = (Cp, PMap<L, V>)> {
        let SparseRows {
            cps, rows, locs, ..
        } = self;
        cps.into_iter().zip(rows).filter_map(move |(cp, row)| {
            let row = row?.into_iter().map(|(r, v)| (locs[r as usize], v));
            Some((cp, PMap::from_sorted_vec(row.collect())))
        })
    }

    /// The [`SparseResult`] of these rows: [`SparseRows::into_pmaps`]
    /// collected into a map sized for them at once.
    pub fn into_result(self) -> SparseResult<L, V> {
        let (points, iterations, narrowing_rounds) =
            (self.points, self.iterations, self.narrowing_rounds);
        let (degraded, work) = (self.degraded, self.work);
        let mut values = FxHashMap::default();
        values.reserve(self.evaluated());
        values.extend(self.into_pmaps());
        SparseResult {
            values,
            points,
            iterations,
            narrowing_rounds,
            degraded,
            work,
        }
    }

    /// [`SparseRows::into_result`]'s map, copied from rows that stay.
    pub fn to_pmaps(&self) -> FxHashMap<Cp, PMap<L, V>> {
        self.iter()
            .map(|(cp, row)| {
                let row = row.iter().map(|(r, v)| (self.locs[*r as usize], v.clone()));
                (cp, PMap::from_sorted_vec(row.collect()))
            })
            .collect()
    }
}

/// A relation's rank tables: rank → location id, and rank → location
/// through `loc_of`, from `rank`, location id → rank.
pub(crate) fn rank_tables<L>(rank: &[u32], loc_of: impl Fn(u32) -> L) -> (Vec<u32>, Vec<L>) {
    let mut ids = vec![0; rank.len()];
    for (id, &r) in rank.iter().enumerate() {
        ids[r as usize] = id as u32;
    }
    let locs = ids.iter().map(|&id| loc_of(id)).collect();
    (ids, locs)
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

/// What one pop computed for its point: keyed by location `K` as the
/// transfer returns it, or by rank as the engine stores it.
enum Candidate<K, V> {
    /// The transfer's output row.
    Whole(Row<K, V>),
    /// Forwarded: the candidates of the dirty locations alone, ascending by
    /// rank (`None`: not bound); every other location is as stored.
    Dirty(Vec<(u32, Option<V>)>),
}

/// A candidate merged with the point's stored row — the row to store, or
/// the entries to patch into it — and the ranks of the locations where the
/// two differ (ascending).
struct Update<V> {
    stored: Candidate<u32, V>,
    changed: Vec<u32>,
}

impl<L: Copy + Ord, V: Clone + PartialEq> Candidate<L, V> {
    /// A cycle head's update: merges with the stored row `old`, with
    /// `f(old value, new value)` where both bind a location; `locs` decodes
    /// a rank. A location only `old` binds stays (a cycle head
    /// accumulates). Changed is every location only the candidate binds, or
    /// whose value `f` moved.
    fn merge(&self, old: &[(u32, V)], locs: &[L], f: impl Fn(&V, &V) -> V) -> Update<V> {
        let new = match self {
            Candidate::Whole(new) => return merge_rows(old, new, locs, f),
            Candidate::Dirty(new) => new,
        };
        let mut patch = Vec::with_capacity(new.len());
        let mut changed = Vec::new();
        for &(r, ref n) in new {
            let o = find(old, &r).ok().map(|at| &old[at].1);
            let v = match (o, n) {
                (Some(_), None) => continue,
                (Some(o), Some(n)) => Some(f(o, n)),
                _ => n.clone(),
            };
            if v.as_ref() != o {
                changed.push(r);
            }
            patch.push((r, v));
        }
        Update {
            stored: Candidate::Dirty(patch),
            changed,
        }
    }
}

impl<L: Copy + Ord, V: PartialEq> Candidate<L, V> {
    /// Any other point's update: the candidate *replaces* the stored row
    /// `old`. Its values move into the row to store (a patch is stored as
    /// it is), and the ranks that differ — bound on one side only, or
    /// moved — are pushed on `changed`, an empty buffer the update hands
    /// back.
    fn replace(self, old: &[(u32, V)], locs: &[L], mut changed: Vec<u32>) -> Update<V> {
        let new = match self {
            Candidate::Whole(new) => new,
            Candidate::Dirty(patch) => {
                for (r, n) in &patch {
                    let o = find(old, r).ok().map(|at| &old[at].1);
                    if n.as_ref() != o {
                        changed.push(*r);
                    }
                }
                return Update {
                    stored: Candidate::Dirty(patch),
                    changed,
                };
            }
        };
        let mut row = Vec::with_capacity(new.len());
        let mut old = old.iter().peekable();
        for (l, v) in new {
            // The stored entries before `l` are gone.
            while let Some(o) = old.next_if(|o| locs[o.0 as usize] < l) {
                changed.push(o.0);
            }
            match old.next_if(|o| locs[o.0 as usize] == l) {
                Some(o) => {
                    if v != o.1 {
                        changed.push(o.0);
                    }
                    row.push((o.0, v));
                }
                None => {
                    let r = locs.partition_point(|k| *k < l);
                    debug_assert!(locs[r] == l, "the transfer binds a ranked location");
                    changed.push(r as u32);
                    row.push((r as u32, v));
                }
            }
        }
        changed.extend(old.map(|o| o.0));
        Update {
            stored: Candidate::Whole(row),
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

/// [`Candidate::merge`] of a whole row: the stored rank-keyed row and the
/// transfer's location-keyed one in one pass. A location the stored row
/// does not bind gets its rank by bisecting `locs`.
fn merge_rows<L: Copy + Ord, V: Clone + PartialEq>(
    old: &[(u32, V)],
    new: &[(L, V)],
    locs: &[L],
    f: impl Fn(&V, &V) -> V,
) -> Update<V> {
    let mut row = Vec::with_capacity(old.len().max(new.len()));
    let mut changed = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < old.len() || j < new.len() {
        let side = match (old.get(i), new.get(j)) {
            (Some(o), Some(n)) => locs[o.0 as usize].cmp(&n.0),
            (Some(_), None) => Ordering::Less,
            _ => Ordering::Greater,
        };
        match side {
            Ordering::Less => row.push(old[i].clone()),
            Ordering::Greater => {
                let r = locs.partition_point(|l| *l < new[j].0);
                debug_assert!(locs[r] == new[j].0, "the transfer binds a ranked location");
                changed.push(r as u32);
                row.push((r as u32, new[j].1.clone()));
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

/// The solver's working state: the relation's rows, one value row per dense
/// point index, and the store's worklist. Stored rows, dirty lists and
/// changed lists name a location by its rank ([`DataDeps::loc_rank`]).
struct Engine<'a, S: SparseSpec> {
    spec: &'a S,
    num: PointNumbering,
    /// Dense point index → point.
    cps: Vec<Cp>,
    main_entry: usize,
    /// The main entry's seed, [`SparseSpec::initial`].
    initial: Row<S::L, S::V>,
    deps: &'a DataDeps,
    /// Location id → rank.
    rank: &'a [u32],
    /// Rank → location id, and rank → location.
    ids: Vec<u32>,
    locs: Vec<S::L>,
    /// `None` until a point's first evaluation, which stores its output
    /// as it is; a cycle head joins (and counts delay) from the second on.
    rows: Vec<Option<Row<u32, S::V>>>,
    /// Per point, the ranks whose input moved since its last pop, as
    /// [`Engine::commit`] met them (unordered, repeats). A pop takes its
    /// list, so none outlives it.
    dirty: Vec<Vec<u32>>,
    /// The gathered `pre` and `ret` rows of the pop being evaluated, and
    /// the changed list of its update: buffers every pop reuses.
    pre: Row<S::L, S::V>,
    ret: Row<S::L, S::V>,
    changed: Vec<u32>,
    worklist: Box<dyn Worklist + 'a>,
    work: FixWork,
}

impl<S: SparseSpec> Engine<'_, S> {
    /// What point `from` binds rank `r` to, if it does.
    fn bound(&self, from: Cp, r: u32) -> Option<&S::V> {
        let row = self.rows[self.num.index(from)].as_ref()?;
        find(row, &r).ok().map(|at| &row[at].1)
    }

    /// Joins the values arriving over `edges` into one ascending row for the
    /// transfer, in the empty buffer `acc`: a single pass, each value
    /// joining into the last entry or opening the next. A source that does
    /// not bind the location contributes nothing.
    fn gather(&self, edges: &[(u32, Cp)], acc: &mut Row<S::L, S::V>) {
        let mut last = None;
        for &(id, from) in edges {
            let r = self.rank[id as usize];
            let Some(v) = self.bound(from, r) else {
                continue;
            };
            match acc.last_mut() {
                Some((_, joined)) if last == Some(id) => *joined = joined.join(v),
                _ => acc.push((self.locs[r as usize], v.clone())),
            }
            last = Some(id);
        }
    }

    /// [`Engine::gather`]'s entry for rank `r` alone — the rows are sorted by
    /// rank, so its edges are one run, joined in the same order — and the
    /// number of edges in the run.
    fn gather_one(&self, edges: &[(u32, Cp)], r: u32) -> (Option<S::V>, usize) {
        let start = edges.partition_point(|&(id, _)| self.rank[id as usize] < r);
        let id = self.ids[r as usize];
        let group = edges[start..].iter().take_while(|e| e.0 == id);
        let mut acc: Option<S::V> = None;
        let mut reads = 0;
        for &(_, from) in group {
            reads += 1;
            if let Some(v) = self.bound(from, r) {
                acc = Some(acc.map_or_else(|| v.clone(), |joined| joined.join(v)));
            }
        }
        (acc, reads)
    }

    /// Applies the transfer of point `i` to its gathered inputs.
    fn evaluate(&mut self, i: usize) -> Row<S::L, S::V> {
        let (mut pre, mut ret) = (std::mem::take(&mut self.pre), std::mem::take(&mut self.ret));
        self.gather(self.deps.into.row(i), &mut pre);
        if i == self.main_entry {
            pre = join_rows(&self.initial, &pre);
        }
        self.gather(self.deps.into_ret.row(i), &mut ret);
        let out = self.spec.transfer(self.cps[i], &pre, &ret);
        pre.clear();
        ret.clear();
        (self.pre, self.ret) = (pre, ret);
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
        dirty: &mut Vec<u32>,
    ) -> Option<Candidate<S::L, S::V>> {
        let cp = self.cps[i];
        #[cfg(test)]
        let whole = whole || FORCE_WHOLE.with(std::cell::Cell::get);
        let whole = whole
            || i == self.main_entry
            || self.rows[i].is_none()
            || !dirty
                .iter()
                .all(|&r| self.spec.forwards(cp, self.ids[r as usize]));
        if whole {
            self.work.whole += 1;
            self.work.edge_reads += self.deps.into.row(i).len() + self.deps.into_ret.row(i).len();
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
        for &r in dirty.iter() {
            let (pre, pre_reads) = self.gather_one(self.deps.into.row(i), r);
            let (ret, ret_reads) = self.gather_one(self.deps.into_ret.row(i), r);
            self.work.edge_reads += pre_reads + ret_reads;
            let v = match (pre, ret) {
                (Some(pre), Some(ret)) => Some(pre.join(&ret)),
                (pre, ret) => pre.or(ret),
            };
            patch.push((r, v.filter(|v| self.spec.keeps(v))));
        }
        Some(Candidate::Dirty(patch))
    }

    /// Stores a changed update — a whole row replaces the stored one, a
    /// patch edits it in place — and requeues the users of exactly the
    /// changed locations, each told which rank moved: the out-edges are
    /// sorted by rank, so each changed location's users are one run, found
    /// by bisecting what is left of the row. An unchanged candidate is
    /// dropped: the stored row keeps its values. The update's changed list,
    /// emptied, is the next update's buffer.
    fn commit(
        &mut self,
        i: usize,
        Update {
            stored,
            mut changed,
        }: Update<S::V>,
    ) {
        if !changed.is_empty() || self.rows[i].is_none() {
            self.store(i, stored, &changed);
        }
        changed.clear();
        self.changed = changed;
    }

    /// [`Engine::commit`] of an update that changed something.
    fn store(&mut self, i: usize, stored: Candidate<u32, S::V>, changed: &[u32]) {
        let mut users = self.deps.out.row(i);
        for &r in changed {
            users = &users[users.partition_point(|&(id, _)| self.rank[id as usize] < r)..];
            let id = self.ids[r as usize];
            let run = users.partition_point(|e| e.0 == id);
            for &(_, to) in &users[..run] {
                let to = self.num.index(to);
                self.worklist.push(to);
                self.dirty[to].push(r);
            }
            users = &users[run..];
        }
        match stored {
            Candidate::Whole(row) => self.rows[i] = Some(row),
            Candidate::Dirty(patch) => {
                let row = self.rows[i].as_mut().expect("forwarding follows a visit");
                for (r, v) in patch {
                    match (find(row, &r), v) {
                        (Ok(at), Some(v)) => row[at].1 = v,
                        (Ok(at), None) => drop(row.remove(at)),
                        (Err(at), Some(v)) => row.insert(at, (r, v)),
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
/// The state is flat: the engine reads `deps`' location-sorted rows as
/// they are (their location order must be `spec`'s), and a point's
/// bindings are one row sorted by location rank. Joining, widening and
/// narrowing are linear merges of two rows that report the changed
/// locations, and only those locations' users are requeued — each with the
/// locations that moved, so a pop whose command only forwards them
/// ([`SparseSpec::forwards`]) merges those entries alone. The main entry's
/// seed ([`SparseSpec::initial`]) is built once per solve.
/// `iterations` and `narrowing_rounds` count pops, whatever a pop computed.
/// The trajectory depends on the pop order (see [`crate::depstore`]).
///
/// Both phases are seeded with exactly the points `deps`' worklist orders
/// ([`Worklist::points`]): every point of the program under
/// [`CsrDeps::build`], a subset under [`CsrDeps::over`]. A point outside it
/// is never evaluated and binds nothing in the result.
///
/// The answer is the engine's rows as they are ([`SparseRows`]); nothing is
/// re-keyed.
///
/// # Panics
///
/// Panics if the ascending phase exceeds its internal iteration backstop
/// even after degradation (a widening bug).
pub fn solve_rows<S: SparseSpec, D: DepStore + ?Sized>(
    program: &Program,
    icfg: &Icfg,
    deps: &D,
    spec: &S,
    plan: &WideningPlan,
    budget: &Budget,
) -> SparseRows<S::L, S::V> {
    let num = program.point_numbering();
    let relation = deps.relation();
    let cycle = &relation.cycle;
    let rank = relation.loc_rank();
    let (ids, locs) = rank_tables(rank, |id| spec.loc_of(id));
    let mut engine = Engine {
        spec,
        cps: program.all_points().collect(),
        main_entry: num.index(Cp::new(program.main, program.procs[program.main].entry)),
        initial: spec.initial(),
        deps: relation,
        rank,
        locs,
        ids,
        rows: (0..num.len()).map(|_| None).collect(),
        dirty: vec![Vec::new(); num.len()],
        pre: Vec::new(),
        ret: Vec::new(),
        changed: Vec::new(),
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
        let cp = engine.cps[i];
        iterations += 1;
        assert!(
            iterations <= backstop,
            "sparse fixpoint exceeded {backstop} iterations: widening failure at {cp}"
        );
        degraded |= meter.step();
        let Some(out) = engine.candidate(i, false) else {
            continue;
        };
        let locs = &engine.locs;
        let update = match engine.rows[i].as_deref() {
            Some(old) if cycle.contains(i) => {
                let joined = out.merge(old, locs, |o, n| o.join(n));
                if joined.changed.is_empty() {
                    joined
                } else if degraded {
                    // Over budget: widen immediately with the plain operator
                    // so every still-rising chain stabilizes in one step.
                    out.merge(old, locs, |o, n| o.widen(n))
                } else if widen_delay[i] < plan.delay {
                    widen_delay[i] += 1;
                    joined
                } else {
                    out.merge(old, locs, |o, n| o.widen_with(n, &plan.thresholds))
                }
            }
            old => out.replace(
                old.unwrap_or_default(),
                locs,
                std::mem::take(&mut engine.changed),
            ),
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
        let locs = &engine.locs;
        let update = match engine.rows[i].as_deref() {
            // Narrow entries present in both; entries only in `old` keep
            // their value; entries only in the candidate are fresh
            // information. Threshold widening can overshoot finitely (the
            // clamp lands above the exact bound, and `narrow` refines only
            // infinite bounds), so under a threshold plan a candidate below
            // the stored value is accepted outright — a descending-iteration
            // step, still bounded by the per-point cap and sound because
            // every candidate re-applies the transfer to a post-fixpoint.
            Some(old) if cycle.contains(i) => candidate.merge(old, locs, |o, n| {
                if !plan.thresholds.is_empty() && n.le(o) {
                    n.clone()
                } else {
                    o.narrow(n)
                }
            }),
            old => {
                let changed = std::mem::take(&mut engine.changed);
                candidate.replace(old.unwrap_or_default(), locs, changed)
            }
        };
        engine.commit(i, update);
    }

    // The answer keeps the rows and their tables; the rest of the engine —
    // dirty lists, buffers, the worklist — is freed on return.
    let Engine {
        num,
        cps,
        locs,
        rows,
        work,
        ..
    } = engine;
    SparseRows {
        num,
        cps,
        rows,
        locs,
        points: seeds.len(),
        iterations,
        narrowing_rounds,
        degraded,
        work,
    }
}

/// [`solve_rows`] with its rows as location-keyed maps
/// ([`SparseRows::into_result`]).
pub fn solve_with<S: SparseSpec, D: DepStore + ?Sized>(
    program: &Program,
    icfg: &Icfg,
    deps: &D,
    spec: &S,
    plan: &WideningPlan,
    budget: &Budget,
) -> SparseResult<S::L, S::V> {
    solve_rows(program, icfg, deps, spec, plan, budget).into_result()
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
