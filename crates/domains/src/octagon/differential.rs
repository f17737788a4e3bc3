//! The correctness gate of the closure kernels: every public operation,
//! driven through random sequences, must produce what the pre-rework
//! definition produces — the raw constraint(s) on the entries as they are,
//! then the plain O(n³) closure — entry for entry, and the "handed back
//! untouched" promises must hold by pointer. The kernels themselves are
//! held against the plain ones on raw matrices.

use super::*;
use proptest::prelude::*;

/// The operations as they were before memoized and incremental closure,
/// written against [`reference::close_with`] (the plain closure) only.
mod reference {
    use super::*;

    /// The plain strengthening step: every entry against every pair of
    /// unary entries.
    pub fn strengthen(m: &mut [i64], n: usize) {
        for a in 0..n {
            let ua = m[a * n + bar(a)];
            if ua >= INF {
                continue;
            }
            for b in 0..n {
                let ub = m[bar(b) * n + b];
                if ub >= INF {
                    continue;
                }
                let cand = (ua >> 1) + (ub >> 1) + (ua & ub & 1);
                if cand < m[a * n + b] {
                    m[a * n + b] = cand;
                }
            }
        }
    }

    /// The plain strong closure: every pivot sweeps every column and is
    /// followed by a strengthening pass.
    pub fn full_closure(m: &mut [i64], n: usize) -> bool {
        for k in 0..n {
            for a in 0..n {
                let mak = m[a * n + k];
                if mak >= INF {
                    continue;
                }
                for b in 0..n {
                    let cand = badd(mak, m[k * n + b]);
                    if cand < m[a * n + b] {
                        m[a * n + b] = cand;
                    }
                }
            }
            strengthen(m, n);
        }
        settle_diagonal(m, n)
    }

    /// The plain edge insertion: every row through the new edge, every
    /// column of row `b`.
    pub fn insert_edge(m: &mut [i64], n: usize, (a, b, c): Edge) -> bool {
        if c >= m[a * n + b] {
            return true;
        }
        if badd(c, m[b * n + a]) < 0 {
            return false;
        }
        for i in 0..n {
            let via = badd(m[i * n + a], c);
            if via >= INF {
                continue;
            }
            for j in 0..n {
                let cand = badd(via, m[b * n + j]);
                if cand < m[i * n + j] {
                    m[i * n + j] = cand;
                }
            }
        }
        true
    }

    /// [`Matrix::close_with`] through the plain closure.
    pub fn close_with(mat: &Matrix, edges: &[Edge]) -> Octagon {
        let n = mat.n();
        let mut m = fresh(&mat.m);
        let buf = cells(&mut m);
        for &e in edges {
            set_raw(buf, n, e);
        }
        if full_closure(buf, n) {
            Matrix::closed(mat.dim, m)
        } else {
            Octagon::Bot
        }
    }

    /// [`Octagon::constrain_fully`] through the plain closure.
    pub fn constrain(x: &Octagon, edge: Edge) -> Octagon {
        match x {
            Octagon::Bot => Octagon::Bot,
            Octagon::Oct(mat) => close_with(mat, &[edge]),
        }
    }

    pub fn close(x: &Octagon) -> Octagon {
        match x {
            Octagon::Oct(mat) if !mat.is_closed() => close_with(mat, &[]),
            _ => x.clone(),
        }
    }

    pub fn forget(x: &Octagon, i: usize) -> Octagon {
        let Octagon::Oct(mat) = close(x) else {
            return Octagon::Bot;
        };
        let mut m = fresh(&mat.m);
        forget_cells(cells(&mut m), mat.n(), i);
        Matrix::closed(mat.dim, m)
    }

    pub fn assign_interval(x: &Octagon, i: usize, itv: &Interval) -> Octagon {
        let Interval::Range(lo, hi) = itv else {
            return Octagon::Bot;
        };
        let mut oct = forget(x, i);
        if let Bound::Int(h) = hi {
            oct = constrain(&oct, (neg(i), pos(i), doubled(*h)));
        }
        if let Bound::Int(l) = lo {
            oct = constrain(&oct, (pos(i), neg(i), doubled(-*l)));
        }
        oct
    }

    pub fn assign_var_plus(x: &Octagon, i: usize, j: usize, c: i64) -> Octagon {
        match forget(x, i) {
            Octagon::Bot => Octagon::Bot,
            Octagon::Oct(mat) => close_with(&mat, &[(pos(j), pos(i), c), (pos(i), pos(j), -c)]),
        }
    }

    fn pointwise(a: &Matrix, b: &Matrix, f: impl Fn(i64, i64) -> i64) -> Rc<[i64]> {
        a.m.iter().zip(b.m.iter()).map(|(&x, &y)| f(x, y)).collect()
    }

    pub fn join(x: &Octagon, y: &Octagon) -> Octagon {
        match (close(x), close(y)) {
            (Octagon::Bot, o) | (o, Octagon::Bot) => o,
            (Octagon::Oct(a), Octagon::Oct(b)) => {
                Matrix::closed(a.dim, pointwise(&a, &b, i64::max))
            }
        }
    }

    pub fn widen(x: &Octagon, y: &Octagon) -> Octagon {
        match (x, close(y)) {
            (Octagon::Bot, o) => o,
            (s, Octagon::Bot) => s.clone(),
            (Octagon::Oct(a), Octagon::Oct(b)) => {
                Matrix::unclosed(a.dim, pointwise(a, &b, |x, y| if y <= x { x } else { INF }))
            }
        }
    }

    pub fn narrow(x: &Octagon, y: &Octagon) -> Octagon {
        match (close(x), close(y)) {
            (Octagon::Bot, _) | (_, Octagon::Bot) => Octagon::Bot,
            (Octagon::Oct(a), Octagon::Oct(b)) => close(&Matrix::unclosed(
                a.dim,
                pointwise(&a, &b, |x, y| if x >= INF { y } else { x }),
            )),
        }
    }
}

fn entries(x: &Octagon) -> Option<(usize, &[i64])> {
    match x {
        Octagon::Bot => None,
        Octagon::Oct(mat) => Some((mat.dim, &mat.m)),
    }
}

/// Whether both are ⊥ or share one matrix allocation: the witness that an
/// operation handed an argument back untouched.
fn same_matrix(x: &Octagon, y: &Octagon) -> bool {
    match (x, y) {
        (Octagon::Bot, Octagon::Bot) => true,
        (Octagon::Oct(a), Octagon::Oct(b)) => Rc::ptr_eq(&a.m, &b.m),
        _ => false,
    }
}

/// Same stored entries (what the next widening reads) and same closure
/// (what everything else reads).
fn check_same(what: &str, new: &Octagon, old: &Octagon) -> Result<(), TestCaseError> {
    prop_assert!(
        entries(new) == entries(old),
        "{what}: stored entries differ\n  new: {:?}\n  old: {:?}",
        entries(new),
        entries(old)
    );
    let (new, old) = (new.close(), reference::close(old));
    prop_assert!(
        entries(&new) == entries(&old),
        "{what}: closures differ\n  new: {:?}\n  old: {:?}",
        entries(&new),
        entries(&old)
    );
    Ok(())
}

/// One step of a random run: `(kind, i, j, c, w)`.
type Step = (u8, usize, usize, i64, i64);

/// Applies `step` to `cur` both ways. `other` is an earlier value of the
/// run, the second argument of the binary operations.
fn apply(cur: &Octagon, other: &Octagon, dim: usize, step: Step) -> (String, Octagon, Octagon) {
    let (kind, i, j, c, w) = step;
    let (i, j) = (i % dim, j % dim);
    let what = format!("{step:?} on {cur:?}");
    let (new, old) = match kind {
        0 => (
            cur.add_diff(i, j, c),
            reference::constrain(cur, (pos(j), pos(i), c)),
        ),
        1 => (
            cur.add_sum_le(i, j, c),
            reference::constrain(cur, (neg(j), pos(i), c)),
        ),
        2 => (
            cur.add_neg_sum_le(i, j, c),
            reference::constrain(cur, (pos(j), neg(i), c)),
        ),
        3 => (
            cur.add_upper(i, c),
            reference::constrain(cur, (neg(i), pos(i), doubled(c))),
        ),
        4 => (
            cur.add_lower(i, c),
            reference::constrain(cur, (pos(i), neg(i), doubled(-c))),
        ),
        5 | 6 => {
            let itv = match (kind, w % 3) {
                (5, _) => Interval::range(c, c + w),
                (_, 0) => Interval::new(Bound::Int(c), Bound::PosInf),
                (_, 1) => Interval::new(Bound::NegInf, Bound::Int(c)),
                _ => Interval::top(),
            };
            (
                cur.assign_interval(i, &itv),
                reference::assign_interval(cur, i, &itv),
            )
        }
        7 if i != j => (
            cur.assign_var_plus(i, j, c),
            reference::assign_var_plus(cur, i, j, c),
        ),
        // x := x + c has one definition; here it only feeds later steps.
        7 => (cur.assign_var_plus(i, i, c), cur.assign_var_plus(i, i, c)),
        8 => (cur.forget(i), reference::forget(cur, i)),
        9 => (cur.join(other), reference::join(cur, other)),
        10 => (other.widen(cur), reference::widen(other, cur)),
        11 => (cur.narrow(other), reference::narrow(cur, other)),
        _ => (
            cur.assume_var(i, RelOp::Eq, j, c),
            reference::constrain(
                &reference::constrain(cur, (pos(j), pos(i), c)),
                (pos(i), pos(j), -c),
            ),
        ),
    };
    (what, new, old)
}

fn arb_run() -> impl Strategy<Value = (usize, Vec<Step>)> {
    (
        2usize..5,
        prop::collection::vec((0u8..13, 0usize..4, 0usize..4, -9i64..10, 0i64..7), 1..32),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// Sum constraints and odd constants included: these are what produce
    /// odd unary entries, where the closure is not idempotent.
    #[test]
    fn every_operation_equals_its_full_closure_definition((dim, steps) in arb_run()) {
        let mut cur = Octagon::top(dim);
        let mut other = Octagon::top(dim);
        for (n, step) in steps.into_iter().enumerate() {
            let (what, new, old) = apply(&cur, &other, dim, step);
            check_same(&what, &new, &old)?;
            if n % 3 == 0 {
                other = cur;
            }
            // A run that hit ⊥ starts over, keeping `other` for variety.
            cur = if new.is_bottom() { Octagon::top(dim) } else { new };
        }
    }

    #[test]
    fn untouched_results_are_pointer_equal((dim, steps) in arb_run()) {
        let mut cur = Octagon::top(dim);
        let mut other = Octagon::top(dim);
        for (n, step) in steps.into_iter().enumerate() {
            let (_, new, _) = apply(&cur, &other, dim, step);
            // Closing twice, and closing a clone, is one closure.
            let closed = new.close();
            prop_assert!(same_matrix(&closed.close(), &closed));
            prop_assert!(same_matrix(&new.clone().close(), &closed));
            if let Octagon::Oct(mat) = &closed {
                if mat.takes_incremental() {
                    // A bound that tightens nothing hands the input back.
                    for i in 0..dim {
                        if let Some(Bound::Int(h)) = closed.project(i).hi() {
                            let slack = closed.add_upper(i, h);
                            prop_assert!(same_matrix(&slack, &closed), "add_upper(x{i}, {h}) on {closed:?}");
                        }
                    }
                }
                // Ordered arguments: join, le and == allocate nothing.
                prop_assert!(same_matrix(&closed.join(&closed), &closed));
                let below = closed.add_upper(0, -50);
                prop_assert!(same_matrix(&closed.join(&below), &closed));
                prop_assert!(same_matrix(&below.join(&closed), &closed));
            }
            if n % 3 == 0 {
                other = cur;
            }
            cur = if new.is_bottom() { Octagon::top(dim) } else { new };
        }
    }
}

/// A raw `2dim × 2dim` matrix of dimension 1 to 10: dense or mostly `+∞`
/// (`sparsity` 0 to 3), coherent (`m[a][b] = m[b̄][ā]`) or not, with a zero
/// diagonal or a random one. Finite entries are small, odd and even,
/// negative ones included, so odd unary entries and negative cycles both
/// turn up.
fn arb_matrix() -> impl Strategy<Value = (usize, Vec<i64>)> {
    (1usize..11, 0usize..4, any::<bool>(), any::<bool>()).prop_flat_map(
        |(dim, sparsity, coherent, zero_diagonal)| {
            let n = 2 * dim;
            // Out of 50 entries, this many are +∞.
            let infinite = [5, 20, 35, 48][sparsity];
            let entry =
                (0..50, -6i64..25).prop_map(move |(roll, c)| if roll < infinite { INF } else { c });
            prop::collection::vec(entry, n * n).prop_map(move |mut m| {
                for a in 0..n {
                    for b in 0..n {
                        if coherent && (bar(b), bar(a)) > (a, b) {
                            m[bar(b) * n + bar(a)] = m[a * n + b];
                        }
                    }
                }
                for a in (0..n).filter(|_| zero_diagonal) {
                    m[a * n + a] = 0;
                }
                (dim, m)
            })
        },
    )
}

/// Runs both strengthening steps on `m` (the same entries, always), then
/// both closures: the same ⊥ verdict, and the same entries whenever `m` is
/// satisfiable. Returns the closure, if any.
fn check_closure(m: &[i64], n: usize) -> Result<Option<Vec<i64>>, TestCaseError> {
    let (mut new, mut old) = (m.to_vec(), m.to_vec());
    strengthen(&mut new, n);
    reference::strengthen(&mut old, n);
    prop_assert_eq!(&new, &old);
    let (mut new, mut old) = (m.to_vec(), m.to_vec());
    let satisfiable = full_closure(&mut new, n);
    prop_assert_eq!(satisfiable, reference::full_closure(&mut old, n));
    if satisfiable {
        prop_assert_eq!(&new, &old);
    }
    Ok(satisfiable.then_some(new))
}

/// Runs both edge insertions on `m`: the same verdict and the same entries.
fn check_insertion(m: &[i64], n: usize, edge: Edge) -> Result<(), TestCaseError> {
    let (mut new, mut old) = (m.to_vec(), m.to_vec());
    let satisfiable = insert_edge(&mut new, n, edge);
    prop_assert_eq!(satisfiable, reference::insert_edge(&mut old, n, edge));
    if satisfiable {
        prop_assert_eq!(new, old);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn closure_kernel_equals_the_plain_closure((dim, m) in arb_matrix()) {
        check_closure(&m, 2 * dim)?;
    }

    /// On the matrix as it is and on its closure (the precondition the
    /// incremental path keeps).
    #[test]
    fn edge_kernel_equals_the_plain_insertion(
        (dim, m) in arb_matrix(), a in 0usize..20, b in 0usize..20, c in -12i64..25,
    ) {
        let n = 2 * dim;
        let edge = (a % n, b % n, c);
        check_insertion(&m, n, edge)?;
        if let Some(closed) = check_closure(&m, n)? {
            check_insertion(&closed, n, edge)?;
        }
    }
}

/// A 40-variable matrix has 80 columns, so the kernels gather each row's
/// finite columns in two passes of [`CHUNK`].
#[test]
fn kernels_equal_the_plain_ones_past_one_pass() {
    let n = 80;
    let mut state = 65261u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut satisfiable = 0;
    for finite_one_in in [2, 6, 30] {
        let m: Vec<i64> = (0..n * n)
            .map(|k| match next() {
                _ if k / n == k % n => 0,
                r if r % finite_one_in == 0 => (r >> 8) as i64 % 60 - 2,
                _ => INF,
            })
            .collect();
        let closed = check_closure(&m, n).unwrap();
        satisfiable += usize::from(closed.is_some());
        for _ in 0..20 {
            let edge = (
                next() as usize % n,
                next() as usize % n,
                next() as i64 % 40 - 5,
            );
            check_insertion(&m, n, edge).unwrap();
            if let Some(closed) = &closed {
                check_insertion(closed, n, edge).unwrap();
            }
        }
    }
    assert!(satisfiable > 0, "no wide matrix was satisfiable");
}
