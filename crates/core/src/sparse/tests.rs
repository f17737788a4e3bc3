use super::*;
use crate::depstore::solved_points;
use crate::interval::Pipeline;
use crate::preanalysis;
use sga_cfront::parse;
use std::cell::{Cell, RefCell};

const INF: i64 = i64::MAX;

/// Runs `f` with every pop of every solve on this thread forced whole: the
/// engine as it was before forwarding, by construction.
pub(crate) fn forcing_whole<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCE_WHOLE.with(|force| force.set(self.0));
        }
    }
    let _restore = Restore(FORCE_WHOLE.with(|force| force.replace(true)));
    f()
}

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

/// The toy's answers to the engine's two questions. `forwards` lists the
/// `(point, edge id)` pairs its command merely hands on; everything else it
/// computes — the trait's default.
#[derive(Default)]
struct Answers {
    forwards: Vec<(Cp, u32)>,
    drops_bottom: bool,
}

fn forwards(pairs: &[(Cp, u32)]) -> Answers {
    Answers {
        forwards: pairs.to_vec(),
        drops_bottom: false,
    }
}

/// A spec whose transfer is the test's closure; logs every evaluation's
/// point and `pre` input, apart by phase.
struct Toy<F> {
    f: F,
    seed: Bindings,
    answers: Answers,
    /// How often the worklist ran dry: 0 while ascending.
    drained: Cell<usize>,
    ascending: RefCell<Vec<(Cp, Bindings)>>,
    descending: RefCell<Vec<(Cp, Bindings)>>,
}

impl<F: Fn(Cp, &Bindings) -> Row<u32, Up>> SparseSpec for Toy<F> {
    type L = u32;
    type V = Up;

    fn loc_of(&self, id: u32) -> u32 {
        l(id)
    }
    fn transfer(&self, cp: Cp, pre: &[(u32, Up)], _ret: &[(u32, Up)]) -> Row<u32, Up> {
        assert!(pre.windows(2).all(|w| w[0].0 < w[1].0), "rows ascend");
        let log = match self.drained.get() {
            0 => &self.ascending,
            _ => &self.descending,
        };
        let pre: Bindings = pre.iter().cloned().collect();
        log.borrow_mut().push((cp, pre.clone()));
        (self.f)(cp, &pre)
    }
    fn initial(&self) -> Row<u32, Up> {
        self.seed.to_sorted_vec()
    }
    fn forwards(&self, cp: Cp, id: u32) -> bool {
        let listed = |&listed: &(Cp, u32)| listed == (cp, id);
        self.answers.forwards.iter().any(listed)
    }
    fn keeps(&self, v: &Up) -> bool {
        !(self.answers.drops_bottom && v.hi < 0)
    }
}

/// A store that reports when its worklist runs dry — the end of a phase,
/// whatever the pops before it computed.
struct Watched<'a, D: ?Sized> {
    store: &'a D,
    drained: &'a Cell<usize>,
}

impl<D: DepStore + ?Sized> DepStore for Watched<'_, D> {
    fn relation(&self) -> &DataDeps {
        self.store.relation()
    }
    fn make_worklist<'a>(&'a self, program: &Program, icfg: &Icfg) -> Box<dyn Worklist + 'a> {
        Box::new(WatchedList {
            inner: self.store.make_worklist(program, icfg),
            drained: self.drained,
        })
    }
}

struct WatchedList<'a> {
    inner: Box<dyn Worklist + 'a>,
    drained: &'a Cell<usize>,
}

impl Worklist for WatchedList<'_> {
    fn points(&self) -> &[u32] {
        self.inner.points()
    }
    fn push(&mut self, point: usize) {
        self.inner.push(point);
    }
    fn pop(&mut self) -> Option<usize> {
        let popped = self.inner.pop();
        if popped.is_none() {
            self.drained.set(self.drained.get() + 1);
        }
        popped
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

/// A hand-built relation over `program`: `(from, edge id, to)` pre-flow
/// edges, the widening points, and the order the worklist pops the listed
/// points in (unlisted points pop before them).
fn relation(program: &Program, edges: &[(Cp, u32, Cp)], cycle: &[Cp], order: &[Cp]) -> DataDeps {
    DataDeps::hand_built(program, edges, l, cycle, order)
}

/// Solves under both backends, handing each result, with the log of the
/// ascending evaluations and of the descending ones, to `check`.
fn solve_toy<F: Fn(Cp, &Bindings) -> Row<u32, Up>>(
    fx: &Fixture,
    deps: &DataDeps,
    f: F,
    seed: Bindings,
    plan: &WideningPlan,
    budget: Budget,
    check: impl Fn(&SparseResult<u32, Up>, &[(Cp, Bindings)], &[(Cp, Bindings)]),
) {
    solve_toy_answering(fx, deps, f, seed, Answers::default(), plan, budget, check);
}

#[allow(clippy::too_many_arguments)]
fn solve_toy_answering<F: Fn(Cp, &Bindings) -> Row<u32, Up>>(
    fx: &Fixture,
    deps: &DataDeps,
    f: F,
    seed: Bindings,
    answers: Answers,
    plan: &WideningPlan,
    budget: Budget,
    check: impl Fn(&SparseResult<u32, Up>, &[(Cp, Bindings)], &[(Cp, Bindings)]),
) {
    let spec = Toy {
        f,
        seed,
        answers,
        drained: Cell::new(0),
        ascending: RefCell::default(),
        descending: RefCell::default(),
    };
    let csr = CsrDeps::build(&fx.program, &fx.icfg, deps);
    let stores: [&dyn DepStore; 2] = [deps, &csr];
    for store in stores {
        let watched = Watched {
            store,
            drained: &spec.drained,
        };
        let solve = || solve_with(&fx.program, &fx.icfg, &watched, &spec, plan, &budget);
        // The toy's answers match its transfer: every pop whole is the same solve.
        let whole = forcing_whole(solve);
        spec.drained.set(0);
        spec.ascending.borrow_mut().clear();
        spec.descending.borrow_mut().clear();
        let result = solve();
        assert!(result.values == whole.values, "forwarding moved a row");
        assert_eq!(
            (result.iterations, result.narrowing_rounds, result.degraded),
            (whole.iterations, whole.narrowing_rounds, whole.degraded)
        );
        let pops = result.work.whole + result.work.forwarded + result.work.skipped;
        assert_eq!(pops, result.iterations + result.narrowing_rounds);
        let transfers = spec.ascending.borrow().len() + spec.descending.borrow().len();
        assert_eq!(
            transfers, result.work.whole,
            "a whole pop is a transfer call"
        );
        check(&result, &spec.ascending.borrow(), &spec.descending.borrow());
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
        &fx.program,
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
fn a_store_over_a_subset_evaluates_its_points_and_no_others() {
    let fx = fixture();
    let (def, user) = (fx.p[0], fx.p[1]);
    let deps = relation(&fx.program, &[(def, 1, user)], &[], &[def, user]);
    let spec = Toy {
        f: |cp: Cp, _: &Bindings| {
            if cp == def {
                row(&[(1, up(3, "d"))])
            } else {
                Row::new()
            }
        },
        seed: PMap::new(),
        answers: Answers::default(),
        drained: Cell::new(0),
        ascending: RefCell::default(),
        descending: RefCell::default(),
    };
    let store = CsrDeps::over(&fx.program, &fx.icfg, &deps, [user, def]);
    let (plan, budget) = (WideningPlan::naive(), Budget::unbounded());
    let result = solve_with(&fx.program, &fx.icfg, &store, &spec, &plan, &budget);
    // A plain store's worklist never reports running dry, so the log is
    // every transfer call; the descent computes nothing off the cycles.
    let log = spec.ascending.borrow();
    let evaluated: Vec<Cp> = log.iter().map(|(cp, _)| *cp).collect();
    assert_eq!(evaluated, [def, user]);
    assert_eq!(hi_at(inputs_at(&log, user)[0], 1), 3);
    assert_eq!(result.points, 2);
    assert_eq!((result.iterations, result.narrowing_rounds), (2, 2));
    let mut bound: Vec<Cp> = result.values.keys().copied().collect();
    bound.sort_unstable();
    assert_eq!(bound, [def, user], "the entry and the rest bind nothing");
}

#[test]
fn a_vanished_binding_requeues_its_users_and_only_those() {
    let fx = fixture();
    let (def, user1, user2, late) = (fx.p[0], fx.p[1], fx.p[2], fx.p[3]);
    // `def` is not on a cycle, so its second output *replaces* the
    // first: once `late`'s value arrives it stops binding location 1.
    let deps = relation(
        &fx.program,
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
    let deps = relation(
        &fx.program,
        &[(source, 5, fx.entry)],
        &[],
        &[source, fx.entry],
    );
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
        &fx.program,
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
        &fx.program,
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

/// What `pre` binds for the edge ids `ids` — a relay's transfer.
fn pass(pre: &Bindings, ids: &[u32]) -> Row<u32, Up> {
    let bound = |&id: &u32| Some((id, pre.get(&l(id))?.clone()));
    row(&ids.iter().filter_map(bound).collect::<Vec<_>>())
}

/// [`solve_toy_answering`] under the naive plan, unbounded, unseeded.
fn solve_relaying<F: Fn(Cp, &Bindings) -> Row<u32, Up>>(
    fx: &Fixture,
    deps: &DataDeps,
    f: F,
    answers: Answers,
    check: impl Fn(&SparseResult<u32, Up>, &[(Cp, Bindings)], &[(Cp, Bindings)]),
) {
    let (plan, budget) = (WideningPlan::naive(), Budget::unbounded());
    solve_toy_answering(fx, deps, f, PMap::new(), answers, &plan, budget, check);
}

fn via_at(result: &SparseResult<u32, Up>, cp: Cp, id: u32) -> Option<&str> {
    result.values[&cp].get(&l(id)).map(|v| v.via.as_str())
}

#[test]
fn a_forwarded_location_rejoins_only_its_own_group_in_edge_order() {
    let fx = fixture();
    let (other, a, b, c, user, late) = (fx.p[0], fx.p[1], fx.p[2], fx.p[3], fx.p[4], fx.p[5]);
    // As above, and `b` binds a new value once `late`'s arrives: `user` is
    // popped again with location 7 dirty, and hands both locations on.
    let deps = relation(
        &fx.program,
        &[
            (c, 7, user),
            (other, 3, user),
            (a, 7, user),
            (b, 7, user),
            (late, 0, b),
        ],
        &[],
        &[other, a, b, c, user, late],
    );
    let f = |cp: Cp, pre: &Bindings| match fx.p.iter().position(|&p| p == cp) {
        Some(0) => row(&[(3, up(9, "other"))]),
        Some(1) => row(&[(7, up(1, "a"))]),
        Some(2) if pre.contains_key(&l(0)) => row(&[(7, up(5, "b'"))]),
        Some(2) => row(&[(7, up(2, "b"))]),
        Some(3) => row(&[(7, up(3, "c"))]),
        Some(4) => pass(pre, &[3, 7]),
        Some(5) => row(&[(0, up(0, "late"))]),
        _ => Row::new(),
    };
    solve_relaying(
        &fx,
        &deps,
        f,
        forwards(&[(user, 3), (user, 7)]),
        |result, ascending, _| {
            assert_eq!(
                evaluations_of(ascending, &[user]),
                [user],
                "the first visit"
            );
            assert_eq!(via_at(result, user, 7), Some("((a⊔b')⊔c)"));
            assert_eq!(via_at(result, user, 3), Some("other"));
            assert_eq!((result.work.forwarded, result.work.forwarded_locs), (1, 1));
            // Whole: other, a, b, c, late read nothing, `b` again reads
            // one edge, `user` four. Forwarded: the three 7s.
            assert_eq!(result.work.edge_reads, 1 + 1 + 4 + 3);
        },
    );
}

/// `def → relay → user1 / user2`, and `def` stops binding location 1 once
/// `late`'s value arrives.
fn vanishing<'f>(
    fx: &'f Fixture,
    cycle: &[Cp],
) -> (
    DataDeps,
    impl Fn(Cp, &Bindings) -> Row<u32, Up> + 'f,
    [Cp; 5],
) {
    let (def, relay, user1, user2, late) = (fx.p[0], fx.p[1], fx.p[2], fx.p[3], fx.p[4]);
    let deps = relation(
        &fx.program,
        &[
            (late, 0, def),
            (def, 1, relay),
            (def, 2, relay),
            (relay, 1, user1),
            (relay, 2, user2),
        ],
        cycle,
        &[def, relay, user1, user2, late],
    );
    let f = move |cp: Cp, pre: &Bindings| {
        if cp == late {
            row(&[(0, up(1, "late"))])
        } else if cp == def && pre.contains_key(&l(0)) {
            row(&[(2, up(5, "b"))])
        } else if cp == def {
            row(&[(1, up(3, "a")), (2, up(5, "b"))])
        } else if cp == relay {
            pass(pre, &[1, 2])
        } else {
            Row::new()
        }
    };
    (deps, f, [def, relay, user1, user2, late])
}

#[test]
fn a_forwarded_binding_that_vanishes_leaves_a_relay_and_requeues_only_its_users() {
    let fx = fixture();
    let (deps, f, [def, relay, user1, user2, late]) = vanishing(&fx, &[]);
    solve_relaying(
        &fx,
        &deps,
        f,
        forwards(&[(relay, 1), (relay, 2)]),
        |result, ascending, _| {
            assert_eq!(
                evaluations_of(ascending, &[def, relay, user1, user2, late]),
                [def, relay, user1, user2, late, def, user1],
                "the relay's second pop runs no transfer; only location 1's user follows"
            );
            assert_eq!(inputs_at(ascending, user1)[1].get(&l(1)), None);
            assert_eq!(via_at(result, relay, 1), None, "a replaced row loses it");
            assert_eq!(via_at(result, relay, 2), Some("b"));
            assert_eq!(result.work.forwarded, 1);
        },
    );
}

#[test]
fn a_forwarded_binding_that_vanishes_stays_at_a_cycle_head() {
    let fx = fixture();
    let (deps, f, [def, relay, user1, user2, late]) = vanishing(&fx, &[fx.p[1]]);
    solve_relaying(
        &fx,
        &deps,
        f,
        forwards(&[(relay, 1), (relay, 2)]),
        |result, ascending, _| {
            assert_eq!(
                evaluations_of(ascending, &[def, relay, user1, user2, late]),
                [def, relay, user1, user2, late, def],
                "a head accumulates: nothing changed, nobody follows"
            );
            assert_eq!(via_at(result, relay, 1), Some("a"));
            assert_eq!(result.work.forwarded, 1);
        },
    );
}

#[test]
fn a_forwarded_bottom_is_dropped_only_when_the_instance_drops_it() {
    let fx = fixture();
    let (def, relay, user, late) = (fx.p[0], fx.p[1], fx.p[2], fx.p[3]);
    let deps = relation(
        &fx.program,
        &[(late, 0, def), (def, 1, relay), (relay, 1, user)],
        &[],
        &[def, relay, user, late],
    );
    for drops_bottom in [true, false] {
        let f = |cp: Cp, pre: &Bindings| {
            if cp == late {
                row(&[(0, up(1, "late"))])
            } else if cp == def && pre.contains_key(&l(0)) {
                row(&[(1, Up::bottom())])
            } else if cp == def {
                row(&[(1, up(3, "a"))])
            } else if cp == relay {
                let mut out = pass(pre, &[1]);
                out.retain(|(_, v)| !(drops_bottom && v.hi < 0));
                out
            } else {
                Row::new()
            }
        };
        let answers = Answers {
            drops_bottom,
            ..forwards(&[(relay, 1)])
        };
        solve_relaying(&fx, &deps, f, answers, |result, ascending, _| {
            assert_eq!(evaluations_of(ascending, &[relay]), [relay]);
            let travelled = (!drops_bottom).then_some("⊥");
            assert_eq!(via_at(result, relay, 1), travelled);
            let seen = inputs_at(ascending, user)[1].get(&l(1));
            assert_eq!(seen.map(|v| v.via.as_str()), travelled);
        });
    }
}

#[test]
fn one_dirty_location_the_command_reads_forces_a_whole_evaluation() {
    let fx = fixture();
    let (def, mixed, late1, late2) = (fx.p[0], fx.p[1], fx.p[2], fx.p[3]);
    // `mixed` hands location 1 on and computes with location 2. `late1`
    // moves `def`'s location 1, `late2` both.
    let deps = relation(
        &fx.program,
        &[
            (late1, 0, def),
            (late2, 9, def),
            (def, 1, mixed),
            (def, 2, mixed),
        ],
        &[],
        &[def, mixed, late1, late2],
    );
    let f = |cp: Cp, pre: &Bindings| {
        if cp == late1 {
            row(&[(0, up(0, "late1"))])
        } else if cp == late2 {
            row(&[(9, up(0, "late2"))])
        } else if cp == def {
            let n = i64::from(pre.contains_key(&l(0))) + 2 * i64::from(pre.contains_key(&l(9)));
            row(&[(1, up(n, "one")), (2, up(n / 2, "two"))])
        } else if cp == mixed {
            let mut out = pass(pre, &[1]);
            out.extend(row(&[(2, up(hi_at(pre, 2) + 10, "sum"))]));
            out.sort_by_key(|e| e.0);
            out
        } else {
            Row::new()
        }
    };
    solve_relaying(
        &fx,
        &deps,
        f,
        forwards(&[(mixed, 1)]),
        |result, ascending, _| {
            let seen: Vec<i64> = inputs_at(ascending, mixed)
                .iter()
                .map(|pre| hi_at(pre, 1))
                .collect();
            assert_eq!(
                seen,
                [0, 3],
                "location 1 at 1 was forwarded past the transfer"
            );
            assert_eq!(result.work.forwarded, 1);
            assert_eq!(hi_at(&result.values[&mixed], 1), 3);
            assert_eq!(hi_at(&result.values[&mixed], 2), 11);
        },
    );
}

#[test]
fn the_main_entry_is_always_a_whole_evaluation() {
    let fx = fixture();
    let (source, late) = (fx.p[0], fx.p[1]);
    let deps = relation(
        &fx.program,
        &[(source, 5, fx.entry), (late, 0, source)],
        &[],
        &[source, fx.entry, late],
    );
    let seed: Bindings = row(&[(5, up(0, "seed"))]).into_iter().collect();
    let f = |cp: Cp, pre: &Bindings| {
        if cp == late {
            row(&[(0, up(0, "late"))])
        } else if cp == source {
            let late = pre.contains_key(&l(0));
            row(&[(5, up(10 + i64::from(late), "source"))])
        } else if cp == fx.entry {
            pass(pre, &[5])
        } else {
            Row::new()
        }
    };
    let (plan, budget) = (WideningPlan::naive(), Budget::unbounded());
    solve_toy_answering(
        &fx,
        &deps,
        f,
        seed,
        forwards(&[(fx.entry, 5)]),
        &plan,
        budget,
        |result, ascending, _| {
            let seen = inputs_at(ascending, fx.entry);
            assert_eq!(seen.len(), 2, "dirty and forwarding, yet evaluated");
            assert_eq!(hi_at(seen[1], 5), 11);
            assert_eq!(via_at(result, fx.entry, 5), Some("(seed⊔source)"));
            assert_eq!(result.work.forwarded, 0);
        },
    );
}

/// A cycle head that only hands `x` (edge id 1) on: `init` binds 0, `back: x = x + 1`,
/// and `echo` copies the head's value back to it — every round one more
/// join with nothing to add.
fn forwarding_loop(
    fx: &Fixture,
) -> (
    DataDeps,
    impl Fn(Cp, &Bindings) -> Row<u32, Up> + '_,
    [Cp; 4],
) {
    let (init, head, echo, back) = (fx.p[0], fx.p[1], fx.p[2], fx.p[3]);
    let deps = relation(
        &fx.program,
        &[
            (init, 1, head),
            (head, 1, echo),
            (echo, 1, head),
            (head, 1, back),
            (back, 1, head),
        ],
        &[head],
        &[init, head, echo, back],
    );
    let f = move |cp: Cp, pre: &Bindings| {
        if cp == init {
            row(&[(1, up(0, "init"))])
        } else if cp == head {
            pass(pre, &[1])
        } else if cp == echo {
            row(&[(1, up(hi_at(pre, 1), "echo"))])
        } else if cp == back {
            row(&[(1, up(hi_at(pre, 1).saturating_add(1), "back"))])
        } else {
            Row::new()
        }
    };
    (deps, f, [init, head, echo, back])
}

#[test]
fn a_forwarded_join_consumes_delay_only_when_it_changes_the_row() {
    let fx = fixture();
    let (deps, f, [_, head, _, back]) = forwarding_loop(&fx);
    let answers = forwards(&[(head, 1)]);
    let plan = WideningPlan {
        delay: 2,
        ..WideningPlan::naive()
    };
    solve_toy_answering(
        &fx,
        &deps,
        f,
        PMap::new(),
        answers,
        &plan,
        Budget::unbounded(),
        |result, ascending, _| {
            // As with the computing head: stored as it is, two changing
            // joins, then the widening — the echoed joins count for nothing.
            let seen: Vec<i64> = inputs_at(ascending, back)
                .iter()
                .map(|pre| hi_at(pre, 1))
                .collect();
            assert_eq!(seen, [0, 1, 2, INF]);
            assert_eq!(evaluations_of(ascending, &[head]), [head]);
            assert!(result.work.forwarded >= 6, "{:?}", result.work);
        },
    );
}

#[test]
fn the_opening_descending_round_computes_only_at_cycle_heads() {
    let fx = fixture();
    let (deps, f, [head, _, _]) = counting_loop(&fx);
    solve_toy(
        &fx,
        &deps,
        f,
        PMap::new(),
        &WideningPlan::naive(),
        Budget::unbounded(),
        |result, _, descending| {
            let points = solved_points(&fx.program).count();
            assert_eq!(result.narrowing_rounds, points, "every pop is counted");
            assert_eq!(evaluations_of(descending, &fx.p), [head]);
            // The main entry is whole as ever; the rest has nothing dirty.
            assert_eq!(result.work.skipped, points - 2);
        },
    );
}

#[test]
fn forcing_whole_runs_the_transfer_at_every_pop() {
    let fx = fixture();
    let (deps, f, [_, head, _, _]) = forwarding_loop(&fx);
    let answers = forwards(&[(head, 1)]);
    forcing_whole(|| {
        solve_relaying(&fx, &deps, f, answers, |result, ascending, descending| {
            assert_eq!(ascending.len(), result.iterations);
            assert_eq!(descending.len(), result.narrowing_rounds);
            assert_eq!((result.work.forwarded, result.work.skipped), (0, 0));
        });
    });
}

#[test]
fn generated_rows_ascend_in_the_spec_location_order() {
    let program = parse(&sga_cgen::generate(&sga_cgen::GenConfig::sized(11, 1))).unwrap();
    let pl = Pipeline::prepare(&program, Default::default());
    let spec = pl.spec();
    let ids = |cp| -> Vec<u32> { pl.deps.deps_out(cp).iter().map(|e| e.0).collect() };
    let mut by_id = 0;
    for cp in program.all_points() {
        for row in [
            pl.deps.deps_into(cp),
            pl.deps.deps_into_ret(cp),
            pl.deps.deps_out(cp),
        ] {
            let key = |&(loc, peer): &(u32, Cp)| (spec.loc_of(loc), peer);
            assert!(
                row.windows(2).all(|w| key(&w[0]) < key(&w[1])),
                "{cp}: by location, then by peer, without repeats"
            );
        }
        let mut sorted = ids(cp);
        sorted.sort_unstable();
        by_id += usize::from(sorted != ids(cp));
    }
    assert!(by_id > 0, "location order and id order differ somewhere");
}

/// Ranks order `count` ids as `loc_of` orders their locations, every id
/// ranked once.
fn assert_ranked<L: Ord + fmt::Debug>(
    what: &str,
    deps: &DataDeps,
    count: usize,
    loc_of: impl Fn(u32) -> L,
) {
    let rank = deps.loc_rank();
    assert_eq!(rank.len(), count, "{what}: every interned id has a rank");
    let mut by_rank: Vec<u32> = (0..count as u32).collect();
    by_rank.sort_unstable_by_key(|&id| rank[id as usize]);
    for (r, w) in by_rank.windows(2).enumerate() {
        assert_eq!(
            rank[w[0] as usize], r as u32,
            "{what}: ranks are 0..{count}"
        );
        let (a, b) = (loc_of(w[0]), loc_of(w[1]));
        assert!(a < b, "{what}: rank {r} holds {a:?}, rank {} {b:?}", r + 1);
    }
}

#[test]
fn the_rank_table_orders_every_interned_location_as_the_instance_does() {
    let dead_store = "int main(int x) { int a; int dead; a = x; dead = 2; return a; }";
    let generated = sga_cgen::generate(&sga_cgen::GenConfig::sized(11, 1));
    for src in [dead_store, &generated] {
        let program = parse(src).unwrap();
        let pl = Pipeline::prepare(&program, Default::default());
        let spec = pl.spec();
        assert_ranked("interval", &pl.deps, pl.du.locs.len(), |id| spec.loc_of(id));
        // The octagon's locations are its pack ids.
        let packs = crate::octagon::build_packs(&program);
        let fresh = crate::octagon::fresh_packs_of(&program, &packs);
        let odu =
            crate::octagon::OctDefUse::compute(&program, &pl.pre, &pl.du, &packs, &fresh, None);
        let deps = crate::depgen::generate_from(&program, &odu, Default::default());
        assert_ranked("octagon", &deps, packs.len(), sga_domains::PackId);
    }

    // `dead` is on no edge, yet its store's row binds it.
    let program = parse(dead_store).unwrap();
    let pl = Pipeline::prepare(&program, Default::default());
    let spec = pl.spec();
    let dead = program
        .vars
        .iter_enumerated()
        .find(|(_, v)| v.name == "dead");
    let dead = sga_domains::AbsLoc::Var(dead.expect("a variable named dead").0);
    let id = pl.du.locs.id(&dead).expect("interned");
    assert!(pl.deps.iter().all(|(_, loc, _)| loc != id), "on no edge");
    let (plan, budget) = (WideningPlan::naive(), Budget::unbounded());
    let result = solve(&program, &pl.icfg, &pl.deps, &spec, &plan, &budget);
    assert!(
        result.values.values().any(|row| row.contains_key(&dead)),
        "a row binds it"
    );
}

/// [`solve_with`]'s maps are [`solve_rows`]' rows converted at the
/// boundary: the same points, each with the same bindings, whether the
/// rows are taken ([`SparseRows::into_result`]) or copied
/// ([`SparseRows::to_pmaps`]); [`SparseRows::get`] finds every binding by
/// its rank, and [`SparseRows::from_bindings`] turns the maps back into
/// the rows.
#[test]
fn the_maps_are_the_rows() {
    let scc = sga_cgen::GenConfig {
        target_loc: 600,
        functions: 20,
        max_scc: 18,
        ..sga_cgen::GenConfig::sized(22, 1)
    };
    for config in [sga_cgen::GenConfig::sized(11, 1), scc] {
        let program = parse(&sga_cgen::generate(&config)).unwrap();
        let pl = Pipeline::prepare(&program, Default::default());
        let (spec, budget) = (pl.spec(), Budget::unbounded());
        let csr = CsrDeps::build(&program, &pl.icfg, &pl.deps);
        let rows = solve_rows(&program, &pl.icfg, &csr, &spec, &pl.widening, &budget);
        let maps = solve_with(&program, &pl.icfg, &csr, &spec, &pl.widening, &budget).values;
        assert_eq!(rows.evaluated(), maps.len());
        assert!(rows.to_pmaps() == maps, "a copied map differs");
        assert!(
            rows.clone().into_result().values == maps,
            "a taken map differs"
        );
        let mut bindings = 0;
        for (cp, row) in rows.iter() {
            assert_eq!(row.len(), maps[&cp].len(), "{cp}");
            for (r, v) in row {
                assert_eq!(rows.get(cp, *r), Some(v), "{cp}");
                assert_eq!(maps[&cp].get(&rows.locs()[*r as usize]), Some(v), "{cp}");
            }
            bindings += row.len();
        }
        assert!(bindings > 0, "nothing bound");
        let bound = maps
            .iter()
            .map(|(cp, m)| (*cp, m.iter().map(|(l, v)| (*l, v.clone()))));
        let back = SparseRows::from_bindings(&program, rows.locs().to_vec(), bound);
        assert!(
            back.iter().eq(rows.iter()),
            "the maps do not give the rows back"
        );
    }
}
