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

use crate::budget::Budget;
use crate::depgen::DataDeps;
use crate::depstore::{solved_points, CsrDeps, DepBackend, DepStore, Worklist};
use crate::icfg::Icfg;
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

    /// The sparse node transfer: given the assembled input bindings
    /// (covering `Û(cp)`), produce the output bindings for `D̂(cp)` as a
    /// [`Row`] — strictly ascending, which walking the sorted `D̂(cp)`
    /// gives for free. A location the transfer leaves out is *absent*,
    /// which the engine keeps apart from one bound to `⊥`.
    ///
    /// `pre` holds values arriving over ordinary def→use dependencies;
    /// `ret` holds values returning from callee exits (non-empty only at
    /// call sites). Argument expressions must be evaluated against `pre`;
    /// relayed locations take `pre ⊔ ret`.
    fn transfer(
        &self,
        cp: Cp,
        pre: &PMap<Self::L, Self::V>,
        ret: &PMap<Self::L, Self::V>,
    ) -> Row<Self::L, Self::V>;

    /// The state entering `main` (parameter seeds), as initial bindings for
    /// the main-entry point.
    fn initial(&self) -> PMap<Self::L, Self::V>;
}

/// Sparse analysis result: `D̂(c)`-restricted states per point.
#[derive(Debug)]
pub struct SparseResult<L: Copy + Ord, V: Clone> {
    /// Output bindings of every evaluated control point.
    pub values: FxHashMap<Cp, PMap<L, V>>,
    /// Node evaluations during the ascending phase.
    pub iterations: usize,
    /// Descending rounds executed.
    pub narrowing_rounds: usize,
    /// Whether the analysis budget ran out. A degraded result is still a
    /// sound post-fixpoint — the remaining ascent used immediate plain
    /// widening and the descending phase was skipped — but it is less
    /// precise than the unbounded fixpoint.
    pub degraded: bool,
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

/// Runs the sparse analysis with the naive widening plan (widen on first
/// change, no thresholds). See [`solve_with`].
pub fn solve<S: SparseSpec>(
    program: &Program,
    icfg: &Icfg,
    deps: &DataDeps,
    spec: &S,
) -> SparseResult<S::L, S::V> {
    solve_with(
        program,
        icfg,
        deps,
        spec,
        &WideningPlan::naive(),
        &Budget::unbounded(),
    )
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

/// A candidate row for one point and the locations where it differs from
/// the point's stored row (ascending).
struct Update<L, V> {
    row: Row<L, V>,
    changed: Vec<L>,
}

/// Merges two ascending rows in one pass, with `f(old value, new value)`
/// where both bind a location. Under `union` a location only `old` binds
/// stays (a cycle head accumulates); otherwise it goes (any other output
/// *replaces* the row). Changed is every location bound on one side only —
/// unless kept — or whose value `f` moved.
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
    Update { row, changed }
}

/// The solver's working state: resolved edge rows, one value row per dense
/// point index, and the backend's worklist.
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
    worklist: Box<dyn Worklist + 'a>,
}

impl<S: SparseSpec> Engine<'_, S> {
    /// Joins the values arriving over `edges` into one ascending row: a
    /// single pass, each value joining into the last entry or opening the
    /// next. A source that does not bind the location contributes nothing.
    fn gather(&self, edges: &[(u32, u32)]) -> PMap<S::L, S::V> {
        let mut acc: Row<S::L, S::V> = Vec::with_capacity(edges.len());
        for &(loc_id, from) in edges {
            let l = self.spec.loc_of(loc_id);
            let Some(from) = &self.rows[from as usize] else {
                continue;
            };
            let Ok(at) = from.binary_search_by(|(k, _)| k.cmp(&l)) else {
                continue;
            };
            let v = &from[at].1;
            match acc.last_mut() {
                Some((last, joined)) if *last == l => *joined = joined.join(v),
                _ => acc.push((l, v.clone())),
            }
        }
        PMap::from_sorted_vec(acc)
    }

    /// Applies the transfer of point `i` to its gathered inputs.
    fn evaluate(&self, i: usize) -> Row<S::L, S::V> {
        let mut pre = self.gather(self.into.row(i));
        if i == self.main_entry {
            pre = self
                .spec
                .initial()
                .union_with(&pre, |_, seed, v| seed.join(v));
        }
        let ret = self.gather(self.into_ret.row(i));
        let out = self.spec.transfer(self.num.cp(i), &pre, &ret);
        debug_assert!(
            out.windows(2).all(|w| w[0].0 < w[1].0),
            "transfer rows must be strictly ascending"
        );
        out
    }

    /// Stores a changed row and requeues the users of exactly the changed
    /// locations (both lists ascend, so one walk over the out-edges). An
    /// unchanged candidate is dropped: the stored row keeps its values.
    fn commit(&mut self, i: usize, Update { row, changed }: Update<S::L, S::V>) {
        if changed.is_empty() && self.rows[i].is_some() {
            return;
        }
        let mut c = 0;
        for &(loc_id, to) in self.out.row(i) {
            let l = self.spec.loc_of(loc_id);
            while c < changed.len() && changed[c] < l {
                c += 1;
            }
            if c < changed.len() && changed[c] == l {
                self.worklist.push(to as usize);
            }
        }
        self.rows[i] = Some(row);
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
/// requeued. The trajectory is backend-independent (see
/// [`crate::depstore`]).
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
        // Every backend's worklist pops the pending point minimal in
        // ((topo rank, ICFG priority), cp) order.
        worklist: deps.make_worklist(program, icfg),
        num,
    };
    let all_points: Vec<usize> = solved_points(program)
        .map(|cp| engine.num.index(cp))
        .collect();
    for &i in &all_points {
        engine.worklist.push(i);
    }

    let backstop = 2000usize.saturating_mul(all_points.len()).max(100_000);
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
        let out = engine.evaluate(i);
        let update = match engine.rows[i].as_deref() {
            Some(old) if cycle.contains(i) => {
                let joined = merge_rows(old, &out, true, |o, n| o.join(n));
                if joined.changed.is_empty() {
                    joined
                } else if degraded {
                    // Over budget: widen immediately with the plain operator
                    // so every still-rising chain stabilizes in one step.
                    merge_rows(old, &out, true, |o, n| o.widen(n))
                } else if widen_delay[i] < plan.delay {
                    widen_delay[i] += 1;
                    joined
                } else {
                    merge_rows(old, &out, true, |o, n| o.widen_with(n, &plan.thresholds))
                }
            }
            old => merge_rows(old.unwrap_or_default(), &out, false, |_, n| n.clone()),
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
        for &i in &all_points {
            engine.worklist.push(i);
        }
    }
    while let Some(i) = engine.worklist.pop() {
        if desc_count[i] >= MAX_DESCENDS_PER_POINT {
            continue;
        }
        desc_count[i] += 1;
        narrowing_rounds += 1;
        let candidate = engine.evaluate(i);
        let update = match engine.rows[i].as_deref() {
            // Narrow entries present in both; entries only in `old` keep
            // their value; entries only in the candidate are fresh
            // information. Threshold widening can overshoot finitely (the
            // clamp lands above the exact bound, and `narrow` refines only
            // infinite bounds), so under a threshold plan a candidate below
            // the stored value is accepted outright — a descending-iteration
            // step, still bounded by the per-point cap and sound because
            // every candidate re-applies the transfer to a post-fixpoint.
            Some(old) if cycle.contains(i) => merge_rows(old, &candidate, true, |o, n| {
                if !plan.thresholds.is_empty() && n.le(o) {
                    n.clone()
                } else {
                    o.narrow(n)
                }
            }),
            old => merge_rows(old.unwrap_or_default(), &candidate, false, |_, n| n.clone()),
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
        iterations,
        narrowing_rounds,
        degraded,
    }
}

/// Runs [`solve_with`] over the store `backend` selects: `Bdd` is `deps`
/// itself (the faithful set/BDD store family and its `BTreeSet` worklist),
/// `Csr` wraps it in [`CsrDeps`]' flat worklist. Results are byte-identical
/// by the equivalence invariant in [`crate::depstore`].
pub fn solve_backend<S: SparseSpec>(
    backend: DepBackend,
    program: &Program,
    icfg: &Icfg,
    deps: &DataDeps,
    spec: &S,
    plan: &WideningPlan,
    budget: &Budget,
) -> SparseResult<S::L, S::V> {
    match backend {
        DepBackend::Bdd => solve_with(program, icfg, deps, spec, plan, budget),
        DepBackend::Csr => {
            let csr = CsrDeps::build(program, icfg, deps);
            solve_with(program, icfg, &csr, spec, plan, budget)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::{IntervalSparseSpec, Pipeline};
    use crate::preanalysis;
    use sga_cfront::parse;
    use std::cell::RefCell;

    const INF: i64 = i64::MAX;

    /// `[0, hi]` (⊥ below zero) plus `via`, the expression that built the
    /// value. Equality ignores `via` the way the octagon's ignores whether a
    /// matrix is stored closed, so `via` shows which operand order and which
    /// stored representation the engine used.
    #[derive(Clone, Debug)]
    struct Up {
        hi: i64,
        via: String,
    }

    fn up(hi: i64, via: &str) -> Up {
        Up {
            hi,
            via: via.to_string(),
        }
    }

    impl PartialEq for Up {
        fn eq(&self, other: &Up) -> bool {
            self.hi == other.hi
        }
    }

    impl Lattice for Up {
        fn bottom() -> Up {
            up(-1, "⊥")
        }
        fn le(&self, other: &Up) -> bool {
            self.hi <= other.hi
        }
        fn join(&self, other: &Up) -> Up {
            up(
                self.hi.max(other.hi),
                &format!("({}⊔{})", self.via, other.via),
            )
        }
        fn widen(&self, other: &Up) -> Up {
            let hi = if other.hi > self.hi { INF } else { self.hi };
            up(hi, &format!("({}∇{})", self.via, other.via))
        }
    }

    type Bindings = PMap<u32, Up>;

    /// The location of edge id `id`. Descending in the id, so the engine
    /// has to order its rows by location rather than trust the store's order.
    fn l(id: u32) -> u32 {
        100 - id
    }

    /// A row from `(edge id, value)` pairs in any order.
    fn row(bindings: &[(u32, Up)]) -> Row<u32, Up> {
        let mut row: Row<u32, Up> = bindings.iter().map(|(id, v)| (l(*id), v.clone())).collect();
        row.sort_by_key(|e| e.0);
        row
    }

    /// A spec whose transfer is the test's closure; logs every evaluation's
    /// point and `pre` input.
    struct Toy<F> {
        f: F,
        seed: Bindings,
        log: RefCell<Vec<(Cp, Bindings)>>,
    }

    impl<F: Fn(Cp, &Bindings) -> Row<u32, Up>> SparseSpec for Toy<F> {
        type L = u32;
        type V = Up;

        fn loc_of(&self, id: u32) -> u32 {
            l(id)
        }
        fn transfer(&self, cp: Cp, pre: &Bindings, _ret: &Bindings) -> Row<u32, Up> {
            self.log.borrow_mut().push((cp, pre.clone()));
            (self.f)(cp, pre)
        }
        fn initial(&self) -> Bindings {
            self.seed.clone()
        }
    }

    /// A one-procedure program to hang hand-built relations on.
    struct Fixture {
        program: Program,
        icfg: Icfg,
        entry: Cp,
        /// The other points of `main`, ascending.
        p: Vec<Cp>,
    }

    fn fixture() -> Fixture {
        let program =
            parse("int main() { int a; a = 1; a = 2; a = 3; a = 4; a = 5; return a; }").unwrap();
        let icfg = Icfg::build(&program, &preanalysis::run(&program));
        let entry = Cp::new(program.main, program.procs[program.main].entry);
        let p: Vec<Cp> = solved_points(&program).filter(|&cp| cp != entry).collect();
        assert!(p.len() >= 5);
        Fixture {
            program,
            icfg,
            entry,
            p,
        }
    }

    /// A hand-built relation: `(from, edge id, to)` pre-flow edges, the
    /// widening points, and the order the worklist pops the listed points
    /// in (unlisted points pop before them).
    fn relation(edges: &[(Cp, u32, Cp)], cycle: &[Cp], order: &[Cp]) -> DataDeps {
        let mut deps = DataDeps::default();
        for &(from, loc, to) in edges {
            deps.out.entry(from).or_default().push((loc, to));
            deps.into.entry(to).or_default().push((loc, from));
        }
        for rows in deps.out.values_mut().chain(deps.into.values_mut()) {
            rows.sort_unstable();
        }
        deps.cycle_nodes = cycle.iter().copied().collect();
        deps.topo_rank = order
            .iter()
            .zip(1..)
            .map(|(&cp, rank)| (cp, rank))
            .collect();
        deps
    }

    /// Solves under both backends, handing each result, with the log split
    /// into the ascending evaluations and the descending ones, to `check`.
    fn solve_toy<F: Fn(Cp, &Bindings) -> Row<u32, Up>>(
        fx: &Fixture,
        deps: &DataDeps,
        f: F,
        seed: Bindings,
        plan: &WideningPlan,
        budget: Budget,
        check: impl Fn(&SparseResult<u32, Up>, &[(Cp, Bindings)], &[(Cp, Bindings)]),
    ) {
        let spec = Toy {
            f,
            seed,
            log: RefCell::default(),
        };
        for backend in [DepBackend::Bdd, DepBackend::Csr] {
            spec.log.borrow_mut().clear();
            let result = solve_backend(backend, &fx.program, &fx.icfg, deps, &spec, plan, &budget);
            let log = spec.log.borrow();
            let (ascending, descending) = log.split_at(result.iterations);
            assert_eq!(descending.len(), result.narrowing_rounds);
            check(&result, ascending, descending);
        }
    }

    fn evaluations_of(log: &[(Cp, Bindings)], points: &[Cp]) -> Vec<Cp> {
        let of = |(cp, _): &(Cp, Bindings)| points.contains(cp).then_some(*cp);
        log.iter().filter_map(of).collect()
    }

    fn inputs_at(log: &[(Cp, Bindings)], cp: Cp) -> Vec<&Bindings> {
        log.iter().filter(|e| e.0 == cp).map(|e| &e.1).collect()
    }

    #[test]
    fn a_binding_to_bottom_is_not_an_absent_binding() {
        let fx = fixture();
        let (binds_bot, binds_nothing, user) = (fx.p[0], fx.p[1], fx.p[2]);
        let deps = relation(
            &[(binds_bot, 1, user), (binds_nothing, 2, user)],
            &[],
            &[binds_bot, binds_nothing, user],
        );
        let f = |cp: Cp, _: &Bindings| {
            if cp == binds_bot {
                row(&[(1, Up::bottom())])
            } else {
                Row::new()
            }
        };
        solve_toy(
            &fx,
            &deps,
            f,
            PMap::new(),
            &WideningPlan::naive(),
            Budget::unbounded(),
            |result, ascending, _| {
                let pre = inputs_at(ascending, user)[0];
                assert_eq!(
                    pre.get(&l(1)),
                    Some(&Up::bottom()),
                    "⊥ travels as a binding"
                );
                assert_eq!(
                    pre.get(&l(2)),
                    None,
                    "an absent binding contributes nothing"
                );
                assert_eq!(result.values[&binds_bot].len(), 1);
                assert!(
                    result.values[&binds_nothing].is_empty(),
                    "an evaluated point has an entry even when it binds nothing"
                );
            },
        );
    }

    #[test]
    fn a_vanished_binding_requeues_its_users_and_only_those() {
        let fx = fixture();
        let (def, user1, user2, late) = (fx.p[0], fx.p[1], fx.p[2], fx.p[3]);
        // `def` is not on a cycle, so its second output *replaces* the
        // first: once `late`'s value arrives it stops binding location 1.
        let deps = relation(
            &[(late, 0, def), (def, 1, user1), (def, 2, user2)],
            &[],
            &[def, user1, user2, late],
        );
        let f = |cp: Cp, pre: &Bindings| {
            if cp == late {
                row(&[(0, up(1, "late"))])
            } else if cp == def && pre.contains_key(&l(0)) {
                row(&[(2, up(5, "b"))])
            } else if cp == def {
                row(&[(1, up(3, "a")), (2, up(5, "b"))])
            } else {
                Row::new()
            }
        };
        solve_toy(
            &fx,
            &deps,
            f,
            PMap::new(),
            &WideningPlan::naive(),
            Budget::unbounded(),
            |result, ascending, _| {
                assert_eq!(
                    evaluations_of(ascending, &[def, user1, user2, late]),
                    [def, user1, user2, late, def, user1],
                    "only location 1's user is evaluated again"
                );
                let seen = inputs_at(ascending, user1);
                assert_eq!(seen[0].get(&l(1)), Some(&up(3, "a")));
                assert_eq!(seen[1].get(&l(1)), None);
                assert_eq!(result.values[&def].len(), 1);
            },
        );
    }

    #[test]
    fn the_main_entry_seed_joins_with_gathered_values() {
        let fx = fixture();
        let source = fx.p[0];
        let deps = relation(&[(source, 5, fx.entry)], &[], &[source, fx.entry]);
        let seed: Bindings = row(&[(5, up(0, "seed")), (6, up(1, "only"))])
            .into_iter()
            .collect();
        let f = |cp: Cp, _: &Bindings| {
            if cp == source {
                row(&[(5, up(10, "source"))])
            } else {
                Row::new()
            }
        };
        solve_toy(
            &fx,
            &deps,
            f,
            seed,
            &WideningPlan::naive(),
            Budget::unbounded(),
            |_, ascending, _| {
                let pre = inputs_at(ascending, fx.entry)[0];
                let joined = pre.get(&l(5)).unwrap();
                assert_eq!((joined.hi, joined.via.as_str()), (10, "(seed⊔source)"));
                assert_eq!(pre.get(&l(6)).unwrap().via, "only");
            },
        );
    }

    /// `head: x = max(0, back's x)`, `back: x = x + 1`, and `echo`, which
    /// copies the head's value back to it on a location the head ignores —
    /// so every round the head is evaluated once more with nothing to add.
    fn counting_loop(
        fx: &Fixture,
    ) -> (
        DataDeps,
        impl Fn(Cp, &Bindings) -> Row<u32, Up> + '_,
        [Cp; 3],
    ) {
        let (head, echo, back) = (fx.p[0], fx.p[1], fx.p[2]);
        let deps = relation(
            &[
                (head, 0, echo),
                (echo, 9, head),
                (head, 0, back),
                (back, 1, head),
            ],
            &[head],
            &[head, echo, back],
        );
        let f = move |cp: Cp, pre: &Bindings| {
            if cp == head {
                row(&[(0, up(hi_at(pre, 1).max(0), "head"))])
            } else if cp == echo {
                row(&[(9, up(hi_at(pre, 0), "echo"))])
            } else if cp == back {
                row(&[(1, up(hi_at(pre, 0).saturating_add(1), "back"))])
            } else {
                Row::new()
            }
        };
        (deps, f, [head, echo, back])
    }

    /// The upper bound `pre` holds for edge id `id` (⊥'s when absent).
    fn hi_at(pre: &Bindings, id: u32) -> i64 {
        pre.get(&l(id)).map_or(-1, |v| v.hi)
    }

    fn head_values_seen_at(log: &[(Cp, Bindings)], back: Cp) -> Vec<i64> {
        let mut seen: Vec<i64> = inputs_at(log, back)
            .iter()
            .map(|pre| hi_at(pre, 0))
            .collect();
        seen.dedup();
        seen
    }

    #[test]
    fn an_unchanged_evaluation_of_a_cycle_head_consumes_no_delay() {
        let fx = fixture();
        let (deps, f, [head, _, back]) = counting_loop(&fx);
        let plan = WideningPlan {
            delay: 2,
            ..WideningPlan::naive()
        };
        solve_toy(
            &fx,
            &deps,
            f,
            PMap::new(),
            &plan,
            Budget::unbounded(),
            |result, ascending, _| {
                // The head's first output is stored as it is, its echoed
                // re-evaluations change nothing, and exactly two changing
                // joins (to 1, to 2) come before the widening.
                assert_eq!(head_values_seen_at(ascending, back), [0, 1, 2, INF]);
                assert_eq!(evaluations_of(ascending, &[head]).len(), 9);
                assert!(!result.degraded);
            },
        );
    }

    #[test]
    fn degraded_mode_widens_at_once_and_skips_the_descent() {
        let fx = fixture();
        let (deps, f, [_, _, back]) = counting_loop(&fx);
        let plan = WideningPlan {
            delay: 2,
            ..WideningPlan::naive()
        };
        solve_toy(
            &fx,
            &deps,
            f,
            PMap::new(),
            &plan,
            Budget::with_max_steps(1),
            |result, ascending, descending| {
                assert!(result.degraded);
                assert_eq!(head_values_seen_at(ascending, back), [0, INF]);
                assert!(descending.is_empty());
                assert_eq!(result.narrowing_rounds, 0);
            },
        );
    }

    #[test]
    fn same_location_edges_join_in_edge_order() {
        let fx = fixture();
        let (other, a, b, c, user) = (fx.p[0], fx.p[1], fx.p[2], fx.p[3], fx.p[4]);
        // The store's row at `user` is id-ordered: (3, other) before the
        // three 7s. By location the 7s come first.
        let deps = relation(
            &[(c, 7, user), (other, 3, user), (a, 7, user), (b, 7, user)],
            &[],
            &[other, a, b, c, user],
        );
        let f = |cp: Cp, _: &Bindings| match fx.p.iter().position(|&p| p == cp) {
            Some(0) => row(&[(3, up(9, "other"))]),
            Some(i @ 1..=3) => row(&[(7, up(i as i64, ["a", "b", "c"][i - 1]))]),
            _ => Row::new(),
        };
        solve_toy(
            &fx,
            &deps,
            f,
            PMap::new(),
            &WideningPlan::naive(),
            Budget::unbounded(),
            |_, ascending, _| {
                let pre = inputs_at(ascending, user)[0];
                let got: Vec<(u32, &str)> = pre.iter().map(|(l, v)| (*l, v.via.as_str())).collect();
                assert_eq!(got, [(l(7), "((a⊔b)⊔c)"), (l(3), "other")]);
            },
        );
    }

    #[test]
    fn resolved_rows_are_the_store_rows_ordered_by_location() {
        let program = parse(
            "int g;
             int helper(int x) { int y; y = x + 1; g = g + y; return y; }
             int main() { int i; i = 0; while (i < 10) { i = helper(i); } return g; }",
        )
        .unwrap();
        let pl = Pipeline::prepare(&program, Default::default());
        let spec = IntervalSparseSpec {
            program: &program,
            pre: &pl.pre,
            du: &pl.du,
        };
        let num = program.point_numbering();
        let loc_of = |id| spec.loc_of(id);
        type RowOf<'d> = &'d dyn Fn(Cp) -> &'d [(u32, Cp)];
        let directions: [RowOf<'_>; 3] = [
            &|cp| pl.deps.deps_into(cp),
            &|cp| pl.deps.deps_into_ret(cp),
            &|cp| pl.deps.deps_out(cp),
        ];
        let mut edges = 0;
        for row_of in directions {
            let resolved = EdgeRows::resolve(&program, &num, row_of, loc_of);
            for cp in program.all_points() {
                let got = resolved.row(num.index(cp));
                let key = |&(loc, peer): &(u32, u32)| (spec.loc_of(loc), peer);
                assert!(
                    got.windows(2).all(|w| key(&w[0]) < key(&w[1])),
                    "{cp}: by location, then in the store's peer order"
                );
                let mut want: Vec<(u32, u32)> = row_of(cp)
                    .iter()
                    .map(|&(loc, peer)| (loc, num.index(peer) as u32))
                    .collect();
                let mut got = got.to_vec();
                want.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, want, "{cp}: same edges as the store");
                edges += got.len();
            }
        }
        assert!(edges > 0);
    }
}
