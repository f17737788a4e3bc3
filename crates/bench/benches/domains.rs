//! Criterion micro-benchmarks of the abstract domains: interval arithmetic,
//! octagon closure, points-to unions, scalar values, the persistent state
//! map, and one sparse transfer over rows.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sga::analysis::interval::{AnalyzeOptions, IntervalSparseSpec, Pipeline};
use sga::analysis::sparse::SparseSpec;
use sga::domains::{AbsLoc, Interval, Lattice, LocSet, Octagon, State, Value};
use sga::ir::{Cmd, LVal, VarId};
use sga::utils::{Idx, PMap};

fn bench_interval(c: &mut Criterion) {
    let a = Interval::range(-50, 120);
    let b = Interval::range(3, 17);
    c.bench_function("interval/mul", |bch| {
        bch.iter(|| std::hint::black_box(a).mul(&b))
    });
    c.bench_function("interval/widen_join", |bch| {
        bch.iter(|| {
            let w = std::hint::black_box(a).widen(&b);
            w.join(&a)
        })
    });
}

fn bench_octagon(c: &mut Criterion) {
    // A 10-variable octagon (the pack-size cap) with a mix of constraints.
    let mut oct = Octagon::top(10);
    for i in 0..10 {
        oct = oct.assign_interval(i, &Interval::range(i as i64, 10 + i as i64));
    }
    for i in 0..9 {
        oct = oct.add_diff(i + 1, i, 1);
    }
    // An unclosed matrix remembers its closure, so every iteration closes a
    // freshly widened one; closing the same value again is a memo hit.
    let grown = oct.assign_var_plus(0, 1, 2);
    c.bench_function("octagon/strong_closure_10vars", |bch| {
        bch.iter_batched(
            || oct.widen(&grown),
            |unclosed| unclosed.close(),
            BatchSize::SmallInput,
        )
    });
    // A real pack constrains few of its members: three of ten here, the
    // other rows and columns +∞, which the closure does not sweep.
    let sparse = Octagon::top(10)
        .assign_interval(0, &Interval::range(0, 10))
        .assign_var_plus(1, 0, 1)
        .assign_interval(2, &Interval::range(-5, 5));
    let sparse_grown = sparse.assign_var_plus(0, 0, 1);
    c.bench_function("octagon/strong_closure_sparse_pack", |bch| {
        bch.iter_batched(
            || sparse.widen(&sparse_grown),
            |unclosed| unclosed.close(),
            BatchSize::SmallInput,
        )
    });
    // One constraint on a closed matrix: the incremental O(n²) path.
    c.bench_function("octagon/add_constraint_10vars", |bch| {
        bch.iter(|| std::hint::black_box(&oct).add_diff(7, 2, 3))
    });
    c.bench_function("octagon/join_10vars", |bch| {
        let other = oct.assign_var_plus(3, 4, -2);
        bch.iter(|| std::hint::black_box(&oct).join(&other))
    });
    c.bench_function("octagon/project", |bch| {
        bch.iter(|| std::hint::black_box(&oct).project(5))
    });
}

fn bench_state(c: &mut Criterion) {
    let locs: Vec<AbsLoc> = (0..1000).map(|i| AbsLoc::Var(VarId::new(i))).collect();
    let big: State = locs.iter().map(|&l| (l, Value::constant(7))).collect();
    c.bench_function("state/insert_into_1000", |bch| {
        bch.iter(|| {
            std::hint::black_box(&big).set(AbsLoc::Var(VarId::new(500)), Value::constant(9))
        })
    });
    let shifted: State = big.set(AbsLoc::Var(VarId::new(1)), Value::constant(8));
    c.bench_function("state/join_mostly_shared_1000", |bch| {
        bch.iter(|| std::hint::black_box(&big).join(&shifted))
    });
    let halves: State = locs
        .iter()
        .step_by(2)
        .map(|&l| (l, Value::constant(3)))
        .collect();
    c.bench_function("state/join_disjoint_halves", |bch| {
        bch.iter(|| std::hint::black_box(&big).join(&halves))
    });
    // A solved sparse row becomes its `SparseResult` map this way.
    let row: Vec<(AbsLoc, Value)> = locs[..32]
        .iter()
        .map(|&l| (l, Value::constant(7)))
        .collect();
    c.bench_function("pmap/from_sorted_vec_32", |bch| {
        bch.iter_batched(|| row.clone(), PMap::from_sorted_vec, BatchSize::SmallInput)
    });
}

/// A scalar value holds nothing on the heap: building, joining and dropping
/// one is register work.
fn bench_value(c: &mut Criterion) {
    c.bench_function("value/constant", |bch| {
        bch.iter(|| Value::constant(std::hint::black_box(7)))
    });
    let a = Value::of_itv(Interval::range(0, 9));
    let b = Value::constant(12);
    c.bench_function("value/join_scalar", |bch| {
        bch.iter(|| std::hint::black_box(&a).join(std::hint::black_box(&b)))
    });
}

/// The interval instance's sparse transfer of `x = y + 1`: the gathered row
/// in, the `D̂(c)` row out.
fn bench_transfer(c: &mut Criterion) {
    let program = sga::frontend::parse("int main(int y) { int x; x = y + 1; return x; }")
        .expect("the bench program parses");
    let staged = Pipeline::prepare(&program, AnalyzeOptions::default());
    let spec = IntervalSparseSpec {
        program: &program,
        pre: &staged.pre,
        du: &staged.du,
    };
    let is_sum = |cmd: &Cmd| matches!(cmd, Cmd::Assign(LVal::Var(_), sga::ir::Expr::Binop(..)));
    let cp = program
        .all_points()
        .find(|&cp| is_sum(program.cmd(cp)))
        .expect("x = y + 1");
    let y = staged.du.uses(cp)[0];
    let pre = vec![(y, Value::of_itv(Interval::range(0, 9)))];
    assert_eq!(spec.transfer(cp, &pre, &[]).len(), 1);
    c.bench_function("semantics/transfer_assign_row", |bch| {
        bch.iter(|| spec.transfer(cp, std::hint::black_box(&pre), &[]))
    });
}

fn bench_locset(c: &mut Criterion) {
    let a: LocSet = (0..200)
        .step_by(2)
        .map(|i| AbsLoc::Var(VarId::new(i)))
        .collect();
    let b: LocSet = (0..200)
        .step_by(3)
        .map(|i| AbsLoc::Var(VarId::new(i)))
        .collect();
    c.bench_function("locset/union_200", |bch| {
        bch.iter(|| std::hint::black_box(&a).union(&b))
    });
    c.bench_function("locset/subset_query", |bch| {
        bch.iter(|| std::hint::black_box(&b).is_subset(&a))
    });
}

criterion_group!(
    benches,
    bench_interval,
    bench_octagon,
    bench_state,
    bench_value,
    bench_transfer,
    bench_locset
);
criterion_main!(benches);
