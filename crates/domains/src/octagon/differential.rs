//! The correctness gate of the closure kernel: every public operation,
//! driven through random sequences, must produce what the pre-rework
//! definition produces — the raw constraint(s) on the entries as they are,
//! then the full O(n³) closure — entry for entry, and the "handed back
//! untouched" promises must hold by pointer.

use super::*;
use proptest::prelude::*;

/// The operations as they were before memoized and incremental closure,
/// written against [`Matrix::close_with`] (the reference closure) only.
mod reference {
    use super::*;

    pub fn close(x: &Octagon) -> Octagon {
        match x {
            Octagon::Oct(mat) if !mat.is_closed() => mat.close_with(&[]),
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
            oct = oct.constrain_fully((neg(i), pos(i), doubled(*h)));
        }
        if let Bound::Int(l) = lo {
            oct = oct.constrain_fully((pos(i), neg(i), doubled(-*l)));
        }
        oct
    }

    pub fn assign_var_plus(x: &Octagon, i: usize, j: usize, c: i64) -> Octagon {
        match forget(x, i) {
            Octagon::Bot => Octagon::Bot,
            Octagon::Oct(mat) => mat.close_with(&[(pos(j), pos(i), c), (pos(i), pos(j), -c)]),
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
            (Octagon::Oct(a), Octagon::Oct(b)) => Matrix::unclosed(
                a.dim,
                pointwise(&a, &b, |x, y| if x >= INF { y } else { x }),
            )
            .close(),
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
            cur.constrain_fully((pos(j), pos(i), c)),
        ),
        1 => (
            cur.add_sum_le(i, j, c),
            cur.constrain_fully((neg(j), pos(i), c)),
        ),
        2 => (
            cur.add_neg_sum_le(i, j, c),
            cur.constrain_fully((pos(j), neg(i), c)),
        ),
        3 => (
            cur.add_upper(i, c),
            cur.constrain_fully((neg(i), pos(i), doubled(c))),
        ),
        4 => (
            cur.add_lower(i, c),
            cur.constrain_fully((pos(i), neg(i), doubled(-c))),
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
            cur.constrain_fully((pos(j), pos(i), c))
                .constrain_fully((pos(i), pos(j), -c)),
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
