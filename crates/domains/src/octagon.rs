//! The octagon abstract domain (Miné, HOSC 2006) — the representative
//! relational domain of the paper's evaluation (`Octagon*` analyzers, §6.2).
//!
//! An octagon over `k` variables tracks constraints of the form
//! `±x_i ± x_j ≤ c`. The implementation is the classic difference-bound
//! matrix (DBM) over `2k` signed forms: index `2i` is `+x_i`, index `2i+1`
//! is `-x_i`, and entry `m[a][b]` bounds `V_b − V_a ≤ m[a][b]`. Strong
//! closure (Floyd–Warshall plus the unary-constraint strengthening step) is
//! the normal form used by `le`, `join`, and projection; widening operates
//! on the *unclosed* left argument, as required for termination.
//!
//! # Closure, at most once
//!
//! A [`Matrix`] is either *closed* (its entries are the strong closure) or
//! *unclosed* (a widening result). An unclosed matrix owns a memo cell that
//! every clone shares: the first [`Octagon::close`] runs the full O(n³)
//! closure and fills it, every later one is an `Rc` clone. Adding one
//! constraint to a closed matrix is O(n²): the new edge and its coherent
//! mirror are inserted into the shortest-path closure one after the other,
//! followed by one strengthening pass. Which of the three applies is read
//! off the matrix itself; nothing selects between them.
//!
//! The kernels cost what the matrix bounds, not its size. A pivot (or an
//! inserted edge) sweeps only the columns its row holds finite, and a
//! strengthening pass only the finite unary entries, since a `+∞` there
//! lowers nothing; the full closure strengthens again only after a pivot
//! that moved a unary entry, since otherwise strengthening changes nothing.
//! A real pack leaves most of its variables unconstrained, so most of its
//! rows are `+∞`. On a satisfiable matrix the result is the plain kernels',
//! entry for entry (`differential.rs` holds the kernels against them).
//!
//! The integer strengthening step rounds `(m[a][ā] + m[b̄][b]) / 2` down,
//! which makes the full closure non-idempotent on matrices with an **odd
//! finite unary entry** `m[a][ā]`, and only there can the incremental
//! closure differ from it. Whenever the input or the incremental result
//! has such an entry the operation recomputes with the full closure, so
//! results are the full closure's, entry for entry (the differential tests
//! below). Either result is a sound octagon: every entry both algorithms
//! derive is an integer consequence of the constraints.
//!
//! # Examples
//!
//! ```
//! use sga_domains::{Octagon, Interval};
//!
//! // x0 ∈ [0, 10], x1 = x0 + 2  ⇒  x1 ∈ [2, 12]
//! let oct = Octagon::top(2)
//!     .assign_interval(0, &Interval::range(0, 10))
//!     .assign_var_plus(1, 0, 2);
//! assert_eq!(oct.project(1), Interval::range(2, 12));
//! ```

use crate::interval::{Bound, Interval};
use crate::lattice::{Lattice, Thresholds};
use sga_ir::RelOp;
use std::cell::OnceCell;
use std::fmt;
use std::rc::Rc;

/// Entry value for "no constraint".
const INF: i64 = i64::MAX / 4;

#[inline]
fn badd(a: i64, b: i64) -> i64 {
    if a >= INF || b >= INF {
        INF
    } else {
        (a + b).min(INF)
    }
}

#[inline]
fn pos(i: usize) -> usize {
    2 * i
}

#[inline]
fn neg(i: usize) -> usize {
    2 * i + 1
}

/// Flips the sign of a DBM index (`+x ↔ -x`).
#[inline]
fn bar(a: usize) -> usize {
    a ^ 1
}

/// The DBM entry of the unary bound `2·x ≤ 2c` for a bound `c` on `x`.
#[inline]
fn doubled(c: i64) -> i64 {
    c.saturating_mul(2).min(INF)
}

/// A raw DBM constraint `V_b − V_a ≤ c`.
type Edge = (usize, usize, i64);

/// An octagon over a fixed number of variables.
///
/// The dimensionless [`Lattice::bottom`] unifies with any dimension, so the
/// packed relational state can use a single `Lattice` instance.
#[derive(Clone)]
pub enum Octagon {
    /// Unsatisfiable constraints (⊥), any dimension.
    Bot,
    /// A satisfiable constraint matrix.
    Oct(Matrix),
}

/// The strong closure of an unclosed matrix, computed on first use and
/// shared by every clone of it. `None` inside the cell means ⊥.
type ClosureMemo = Rc<OnceCell<Option<Rc<[i64]>>>>;

/// The DBM payload of a non-⊥ octagon.
#[derive(Clone)]
pub struct Matrix {
    dim: usize,
    /// Row-major `2dim × 2dim` bound matrix.
    m: Rc<[i64]>,
    /// `None`: `m` is strongly closed. `Some`: `m` is a widening result kept
    /// unclosed (widening's left argument must be), and the cell holds its
    /// closure once somebody asked for it.
    closure: Option<ClosureMemo>,
}

impl Matrix {
    #[inline]
    fn n(&self) -> usize {
        2 * self.dim
    }

    #[inline]
    fn at(&self, a: usize, b: usize) -> i64 {
        self.m[a * self.n() + b]
    }

    #[inline]
    fn is_closed(&self) -> bool {
        self.closure.is_none()
    }

    /// Whether one more constraint can be closed incrementally: closed, and
    /// no odd finite unary entry (module docs).
    fn takes_incremental(&self) -> bool {
        self.is_closed() && !has_odd_unary(&self.m, self.n())
    }
}

/// The one allocation of a matrix-producing operation: a uniquely owned
/// copy of `src`, edited in place through [`cells`] before it is shared.
#[inline]
fn fresh(src: &[i64]) -> Rc<[i64]> {
    Rc::from(src)
}

#[inline]
fn cells(m: &mut Rc<[i64]>) -> &mut [i64] {
    Rc::get_mut(m).expect("a freshly built matrix is unshared")
}

/// Whether some unary entry `m[a][ā]` is finite and odd — the matrices on
/// which the full closure's rounding is not idempotent (module docs).
fn has_odd_unary(m: &[i64], n: usize) -> bool {
    (0..n).any(|a| {
        let u = m[a * n + bar(a)];
        u < INF && u & 1 == 1
    })
}

/// The strengthening step `m[a][b] ← min(m[a][b], ⌊(m[a][ā] + m[b̄][b]) / 2⌋)`.
/// It never changes a unary entry, so it can run in place, and only the
/// finite unary entries `m[b̄][b]`, gathered once, can lower anything.
fn strengthen(m: &mut [i64], n: usize) {
    let mut finite = [(0, 0); CHUNK];
    let mut from = 0;
    while from < n {
        let (len, next) = finite_entries(n, from, |b| m[bar(b) * n + b], &mut finite);
        from = next;
        for (a, row) in m.chunks_exact_mut(n).enumerate() {
            let ua = row[bar(a)];
            if ua >= INF {
                continue;
            }
            for &(b, ub) in &finite[..len] {
                let cand = (ua >> 1) + (ub >> 1) + (ua & ub & 1);
                if cand < row[b] {
                    row[b] = cand;
                }
            }
        }
    }
}

/// Negative diagonal ⇒ ⊥ (`false`); otherwise normalizes it to zero.
fn settle_diagonal(m: &mut [i64], n: usize) -> bool {
    for a in 0..n {
        if m[a * n + a] < 0 {
            return false;
        }
        m[a * n + a] = 0;
    }
    true
}

/// How many entries a kernel gathers per pass into its stack buffer: one
/// pass for every matrix up to 32 variables, several for wider ones.
const CHUNK: usize = 64;

/// Gathers into `finite` the columns `j` from `from` on whose `entry(j)` is
/// finite, with that entry, at most [`CHUNK`] of them. Returns how many,
/// and the column the next pass starts from (`n` once done).
fn finite_entries(
    n: usize,
    from: usize,
    entry: impl Fn(usize) -> i64,
    finite: &mut [(usize, i64); CHUNK],
) -> (usize, usize) {
    let (mut len, mut j) = (0, from);
    while j < n && len < CHUNK {
        let e = entry(j);
        if e < INF {
            finite[len] = (j, e);
            len += 1;
        }
        j += 1;
    }
    (len, j)
}

/// The strong closure, in place: Floyd–Warshall with the strengthening
/// step interleaved after every pivot. `false` means ⊥.
///
/// It pays for the finite bounds only. At pivot `k` a column `b` with
/// `m[k][b] = +∞` lowers nothing, and row `k`'s `+∞` entries stay `+∞`
/// while `k` pivots, so only the finite ones are swept, read as the pivot
/// found them: row `k` moves during its own pivot only when `m[k][k] < 0`,
/// and then the matrix is ⊥ whatever follows. Strengthening runs only
/// when some unary entry `m[a][ā]` moved since it last ran: it never moves
/// one itself, and with the unary entries as they were and every other
/// entry only lowered it would change nothing. On a satisfiable matrix the
/// result is the plain kernel's, entry for entry.
fn full_closure(m: &mut [i64], n: usize) -> bool {
    let mut finite = [(0, 0); CHUNK];
    // Strengthening has not run yet: every unary entry counts as moved.
    let mut unary_moved = true;
    for k in 0..n {
        let mut from = 0;
        while from < n {
            let (len, next) = finite_entries(n, from, |b| m[k * n + b], &mut finite);
            from = next;
            for (a, row) in m.chunks_exact_mut(n).enumerate() {
                let mak = row[k];
                if mak >= INF {
                    continue;
                }
                for &(b, mkb) in &finite[..len] {
                    let cand = badd(mak, mkb);
                    if cand < row[b] {
                        row[b] = cand;
                        unary_moved |= b == bar(a);
                    }
                }
            }
        }
        // Strengthening interleaved keeps strong closure exact.
        if unary_moved {
            strengthen(m, n);
            unary_moved = false;
        }
    }
    settle_diagonal(m, n)
}

/// Sets `m[a][b]` and its coherent mirror to `c` if that tightens `m[a][b]`.
#[inline]
fn set_raw(m: &mut [i64], n: usize, (a, b, c): Edge) {
    if c < m[a * n + b] {
        m[a * n + b] = c;
        m[bar(b) * n + bar(a)] = c;
    }
}

/// Inserts the edge `a → b` of weight `c` into a shortest-path-closed `m`,
/// keeping it shortest-path closed: every path uses the new edge at most
/// once. `false` means the edge closes a negative cycle (⊥). Safe in
/// place: absent such a cycle, no entry of column `a` or row `b` moves —
/// so row `b`'s finite entries, gathered once, are all that can lower one.
fn insert_edge(m: &mut [i64], n: usize, (a, b, c): Edge) -> bool {
    if c >= m[a * n + b] {
        return true;
    }
    if badd(c, m[b * n + a]) < 0 {
        return false;
    }
    let mut finite = [(0, 0); CHUNK];
    let mut from = 0;
    while from < n {
        let (len, next) = finite_entries(n, from, |j| m[b * n + j], &mut finite);
        from = next;
        for row in m.chunks_exact_mut(n) {
            let via = badd(row[a], c);
            if via >= INF {
                continue;
            }
            for &(j, mbj) in &finite[..len] {
                let cand = badd(via, mbj);
                if cand < row[j] {
                    row[j] = cand;
                }
            }
        }
    }
    true
}

/// Removes every constraint on `x_i` from a closed `m`.
fn forget_cells(m: &mut [i64], n: usize, i: usize) {
    for a in [pos(i), neg(i)] {
        for b in 0..n {
            if a != b {
                m[a * n + b] = INF;
                m[b * n + a] = INF;
            }
        }
    }
}

impl Matrix {
    fn closed(dim: usize, m: Rc<[i64]>) -> Octagon {
        Octagon::Oct(Matrix {
            dim,
            m,
            closure: None,
        })
    }

    fn unclosed(dim: usize, m: Rc<[i64]>) -> Octagon {
        Octagon::Oct(Matrix {
            dim,
            m,
            closure: Some(Rc::new(OnceCell::new())),
        })
    }

    /// The reference path: these entries plus `edges`, through the full
    /// closure. The only path for unclosed matrices, and the fallback for
    /// closed ones with an odd unary entry.
    fn close_with(&self, edges: &[Edge]) -> Octagon {
        let n = self.n();
        let mut m = fresh(&self.m);
        let buf = cells(&mut m);
        for &e in edges {
            set_raw(buf, n, e);
        }
        if full_closure(buf, n) {
            Matrix::closed(self.dim, m)
        } else {
            Octagon::Bot
        }
    }

    /// Incremental strong closure of a *closed* matrix after `prepare`
    /// (which must leave it shortest-path closed, e.g. a forget) and the
    /// insertion of `edges`: O(n²) per edge and one strengthening pass.
    /// Requires [`Matrix::takes_incremental`]; `None` when the result has an
    /// odd finite unary entry and the caller must take the reference path.
    fn close_incrementally(
        &self,
        prepare: impl FnOnce(&mut [i64]),
        edges: impl IntoIterator<Item = Edge>,
    ) -> Option<Octagon> {
        debug_assert!(self.takes_incremental());
        let n = self.n();
        let mut m = fresh(&self.m);
        let buf = cells(&mut m);
        prepare(buf);
        for (a, b, c) in edges {
            let mirror = (bar(b), bar(a), c);
            if !insert_edge(buf, n, (a, b, c))
                || (mirror != (a, b, c) && !insert_edge(buf, n, mirror))
            {
                return Some(Octagon::Bot);
            }
        }
        // Strengthening leaves unary entries alone: they are final here.
        if has_odd_unary(buf, n) {
            return None;
        }
        strengthen(buf, n);
        Some(if settle_diagonal(buf, n) {
            Matrix::closed(self.dim, m)
        } else {
            Octagon::Bot
        })
    }
}

impl Octagon {
    /// The unconstrained octagon over `dim` variables.
    pub fn top(dim: usize) -> Octagon {
        let n = 2 * dim;
        let m = (0..n * n)
            .map(|k| if k / n == k % n { 0 } else { INF })
            .collect();
        Matrix::closed(dim, m)
    }

    /// Number of variables, `None` for the dimensionless ⊥.
    pub fn dim(&self) -> Option<usize> {
        match self {
            Octagon::Bot => None,
            Octagon::Oct(mat) => Some(mat.dim),
        }
    }

    /// Strong closure: shortest paths plus the strengthening step
    /// `m[a][b] ← min(m[a][b], (m[a][ā] + m[b̄][b]) / 2)`. Detects ⊥ via a
    /// negative diagonal. Returns a closed octagon (or ⊥). Computed at most
    /// once per unclosed matrix, however often it is cloned and closed.
    #[must_use]
    pub fn close(&self) -> Octagon {
        let Octagon::Oct(mat) = self else {
            return Octagon::Bot;
        };
        let Some(memo) = &mat.closure else {
            return self.clone();
        };
        let closed = memo.get_or_init(|| match mat.close_with(&[]) {
            Octagon::Oct(c) => Some(c.m),
            Octagon::Bot => None,
        });
        match closed {
            Some(m) => Matrix::closed(mat.dim, m.clone()),
            None => Octagon::Bot,
        }
    }

    /// The reference path of [`Octagon::constrain`]: the raw constraint (and
    /// its coherent mirror) on the entries as they are, then the full closure.
    #[must_use]
    fn constrain_fully(&self, edge: Edge) -> Octagon {
        match self {
            Octagon::Bot => Octagon::Bot,
            Octagon::Oct(mat) => mat.close_with(&[edge]),
        }
    }

    /// Adds the raw DBM constraint `V_b − V_a ≤ c` and closes. Hands `self`
    /// back untouched when it is closed and the bound tightens nothing.
    #[must_use]
    fn constrain(&self, edge: Edge) -> Octagon {
        if let Octagon::Oct(mat) = self {
            if mat.takes_incremental() {
                let (a, b, c) = edge;
                if c >= mat.at(a, b) {
                    return self.clone();
                }
                if let Some(out) = mat.close_incrementally(|_| {}, [edge]) {
                    return out;
                }
            }
        }
        self.constrain_fully(edge)
    }

    /// Adds `x_j − x_i ≤ c`.
    #[must_use]
    pub fn add_diff(&self, j: usize, i: usize, c: i64) -> Octagon {
        self.constrain((pos(i), pos(j), c))
    }

    /// Adds `x_j + x_i ≤ c`.
    #[must_use]
    pub fn add_sum_le(&self, j: usize, i: usize, c: i64) -> Octagon {
        self.constrain((neg(i), pos(j), c))
    }

    /// Adds `−x_j − x_i ≤ c`.
    #[must_use]
    pub fn add_neg_sum_le(&self, j: usize, i: usize, c: i64) -> Octagon {
        self.constrain((pos(i), neg(j), c))
    }

    /// Adds `x_i ≤ c`.
    #[must_use]
    pub fn add_upper(&self, i: usize, c: i64) -> Octagon {
        self.constrain((neg(i), pos(i), doubled(c)))
    }

    /// Adds `x_i ≥ c`.
    #[must_use]
    pub fn add_lower(&self, i: usize, c: i64) -> Octagon {
        self.constrain((pos(i), neg(i), doubled(-c)))
    }

    /// Removes every constraint on `x_i` (Miné's *forget*), closing first so
    /// relations through `x_i` are preserved.
    #[must_use]
    pub fn forget(&self, i: usize) -> Octagon {
        let closed = self.close();
        let Octagon::Oct(mat) = &closed else {
            return Octagon::Bot;
        };
        let n = mat.n();
        let unconstrained = [pos(i), neg(i)]
            .into_iter()
            .all(|a| (0..n).all(|b| a == b || (mat.at(a, b) >= INF && mat.at(b, a) >= INF)));
        if unconstrained {
            return closed;
        }
        let mut m = fresh(&mat.m);
        forget_cells(cells(&mut m), n, i);
        Matrix::closed(mat.dim, m)
    }

    /// `x_i := [lo, hi]` — forget then bound.
    #[must_use]
    pub fn assign_interval(&self, i: usize, itv: &Interval) -> Octagon {
        let Interval::Range(lo, hi) = itv else {
            return Octagon::Bot;
        };
        let upper = match hi {
            Bound::Int(h) => Some((neg(i), pos(i), doubled(*h))),
            _ => None,
        };
        let lower = match lo {
            Bound::Int(l) => Some((pos(i), neg(i), doubled(-*l))),
            _ => None,
        };
        let bounds = [upper, lower].into_iter().flatten();
        let closed = self.close();
        if let Octagon::Oct(mat) = &closed {
            if mat.takes_incremental() && (upper.is_some() || lower.is_some()) {
                let forget = |m: &mut [i64]| forget_cells(m, mat.n(), i);
                if let Some(out) = mat.close_incrementally(forget, bounds.clone()) {
                    return out;
                }
            }
        }
        bounds.fold(closed.forget(i), |oct, bound| oct.constrain_fully(bound))
    }

    /// `x_i := x_j + c` (exact octagonal assignment).
    #[must_use]
    pub fn assign_var_plus(&self, i: usize, j: usize, c: i64) -> Octagon {
        let closed = self.close();
        let Octagon::Oct(mat) = &closed else {
            return Octagon::Bot;
        };
        let n = mat.n();
        if i == j {
            // x := x + c — shift every bound mentioning x by ±c.
            if c == 0 {
                return closed;
            }
            let mut m = fresh(&mat.m);
            let buf = cells(&mut m);
            let (p, q) = (pos(i), neg(i));
            for a in 0..n {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    let mut delta = 0i64;
                    // Entry bounds V_b − V_a; +x contributes +c to V,
                    // −x contributes −c.
                    if b == p {
                        delta -= c;
                    }
                    if b == q {
                        delta += c;
                    }
                    if a == p {
                        delta += c;
                    }
                    if a == q {
                        delta -= c;
                    }
                    let v = buf[a * n + b];
                    if v < INF {
                        buf[a * n + b] = v.saturating_sub(delta).min(INF);
                    }
                }
            }
            Matrix::closed(mat.dim, m)
        } else {
            // x := y + c: forget x, then x − y ≤ c and y − x ≤ −c.
            let equal = [(pos(j), pos(i), c), (pos(i), pos(j), -c)];
            if mat.takes_incremental() {
                let forget = |m: &mut [i64]| forget_cells(m, n, i);
                if let Some(out) = mat.close_incrementally(forget, equal) {
                    return out;
                }
            }
            match closed.forget(i) {
                Octagon::Bot => Octagon::Bot,
                Octagon::Oct(forgotten) => forgotten.close_with(&equal),
            }
        }
    }

    /// Tests/refines with `x_i ⋈ x_j + c` (assume transfer function).
    #[must_use]
    pub fn assume_var(&self, i: usize, op: RelOp, j: usize, c: i64) -> Octagon {
        match op {
            RelOp::Le => self.add_diff(i, j, c),
            RelOp::Lt => self.add_diff(i, j, c - 1),
            RelOp::Ge => self.add_diff(j, i, -c),
            RelOp::Gt => self.add_diff(j, i, -c - 1),
            RelOp::Eq => self.add_diff(i, j, c).add_diff(j, i, -c),
            RelOp::Ne => self.clone(), // octagons cannot express ≠
        }
    }

    /// Tests/refines with `x_i ⋈ c`.
    #[must_use]
    pub fn assume_const(&self, i: usize, op: RelOp, c: i64) -> Octagon {
        match op {
            RelOp::Le => self.add_upper(i, c),
            RelOp::Lt => self.add_upper(i, c - 1),
            RelOp::Ge => self.add_lower(i, c),
            RelOp::Gt => self.add_lower(i, c + 1),
            RelOp::Eq => self.add_upper(i, c).add_lower(i, c),
            RelOp::Ne => self.clone(),
        }
    }

    /// Projects variable `x_i` to an interval — `π_x` of §4.2, the bridge
    /// from the relational domain back to non-relational values.
    pub fn project(&self, i: usize) -> Interval {
        let closed = self.close();
        let Octagon::Oct(mat) = &closed else {
            return Interval::Bot;
        };
        let up = mat.at(neg(i), pos(i)); // 2·x ≤ up
        let dn = mat.at(pos(i), neg(i)); // −2·x ≤ dn
        let hi = if up >= INF {
            Bound::PosInf
        } else {
            Bound::Int(up.div_euclid(2))
        };
        let lo = if dn >= INF {
            Bound::NegInf
        } else {
            Bound::Int((-dn).div_euclid(2) + i64::from((-dn).rem_euclid(2) != 0))
        };
        Interval::new(lo, hi)
    }

    /// The tightest known bound on `x_i − x_j`, if any.
    pub fn diff_bound(&self, i: usize, j: usize) -> Option<i64> {
        let closed = self.close();
        let Octagon::Oct(mat) = &closed else {
            return None;
        };
        let c = mat.at(pos(j), pos(i));
        (c < INF).then_some(c)
    }

    /// The interval of `x_i − x_j` implied by the constraints.
    pub fn diff_interval(&self, i: usize, j: usize) -> Interval {
        let closed = self.close();
        let Octagon::Oct(_) = &closed else {
            return Interval::Bot;
        };
        let hi = match closed.diff_bound(i, j) {
            Some(c) => Bound::Int(c),
            None => Bound::PosInf,
        };
        let lo = match closed.diff_bound(j, i) {
            Some(c) => Bound::Int(-c),
            None => Bound::NegInf,
        };
        Interval::new(lo, hi)
    }

    /// The interval of `x_i + x_j` implied by the constraints.
    pub fn sum_interval(&self, i: usize, j: usize) -> Interval {
        let closed = self.close();
        let Octagon::Oct(mat) = &closed else {
            return Interval::Bot;
        };
        // x_i + x_j ≤ c is entry m[i⁻][j⁺]; −x_i − x_j ≤ c is m[i⁺][j⁻].
        let up = mat.at(neg(i), pos(j));
        let dn = mat.at(pos(i), neg(j));
        let hi = if up >= INF {
            Bound::PosInf
        } else {
            Bound::Int(up)
        };
        let lo = if dn >= INF {
            Bound::NegInf
        } else {
            Bound::Int(-dn)
        };
        Interval::new(lo, hi)
    }

    /// Greatest lower bound.
    #[must_use]
    pub fn meet(&self, other: &Self) -> Octagon {
        match (self.close(), other.close()) {
            (Octagon::Bot, _) | (_, Octagon::Bot) => Octagon::Bot,
            (Octagon::Oct(a), Octagon::Oct(b)) => closed_pointwise(&a, &b, i64::min),
        }
    }
}

/// `f` entry by entry over two closed matrices, then the full closure (the
/// results of `meet` and `narrow` are not closed as they come).
fn closed_pointwise(a: &Matrix, b: &Matrix, f: impl Fn(i64, i64) -> i64) -> Octagon {
    assert_eq!(a.dim, b.dim, "octagon dimension mismatch");
    let mut m: Rc<[i64]> = a.m.iter().zip(b.m.iter()).map(|(&x, &y)| f(x, y)).collect();
    if full_closure(cells(&mut m), a.n()) {
        Matrix::closed(a.dim, m)
    } else {
        Octagon::Bot
    }
}

/// DBM widening of the *unclosed* `a` by the closed `b`: stable bounds
/// stay, a growing one becomes `grown(its new value)`. When nothing grows
/// the result is `a` itself, memo cell included.
fn widen_matrix(a: &Matrix, b: &Matrix, grown: impl Fn(i64) -> i64) -> Octagon {
    assert_eq!(a.dim, b.dim, "octagon dimension mismatch");
    let stable = a.m.iter().zip(b.m.iter()).all(|(&x, &y)| y <= x);
    // A closed `a` with an odd unary entry is not a fixpoint of the full
    // closure; its unclosed copy would close to something else.
    if stable && (!a.is_closed() || a.takes_incremental()) {
        return Octagon::Oct(a.clone());
    }
    let m =
        a.m.iter()
            .zip(b.m.iter())
            .map(|(&x, &y)| if y <= x { x } else { grown(y) })
            .collect();
    Matrix::unclosed(a.dim, m)
}

impl Lattice for Octagon {
    fn bottom() -> Self {
        Octagon::Bot
    }

    fn is_bottom(&self) -> bool {
        matches!(self.close(), Octagon::Bot)
    }

    fn le(&self, other: &Self) -> bool {
        // Comparing against the raw right side is unsound; close both.
        match (self.close(), other.close()) {
            (Octagon::Bot, _) => true,
            (Octagon::Oct(_), Octagon::Bot) => false,
            (Octagon::Oct(a), Octagon::Oct(b)) => {
                assert_eq!(a.dim, b.dim, "octagon dimension mismatch");
                Rc::ptr_eq(&a.m, &b.m) || a.m.iter().zip(b.m.iter()).all(|(&x, &y)| x <= y)
            }
        }
    }

    fn join(&self, other: &Self) -> Self {
        // Pointwise max of *closed* arguments is the octagon lub; an
        // argument that already covers the other is handed back as it is.
        match (self.close(), other.close()) {
            (Octagon::Bot, o) | (o, Octagon::Bot) => o,
            (Octagon::Oct(a), Octagon::Oct(b)) => {
                assert_eq!(a.dim, b.dim, "octagon dimension mismatch");
                let pairs = || a.m.iter().zip(b.m.iter());
                if Rc::ptr_eq(&a.m, &b.m) || pairs().all(|(&x, &y)| y <= x) {
                    Octagon::Oct(a)
                } else if pairs().all(|(&x, &y)| x <= y) {
                    Octagon::Oct(b)
                } else {
                    Matrix::closed(a.dim, pairs().map(|(&x, &y)| x.max(y)).collect())
                }
            }
        }
    }

    fn widen(&self, other: &Self) -> Self {
        // Standard DBM widening: keep stable bounds, drop growing ones.
        // The left argument must stay unclosed between widening steps.
        match (self, other.close()) {
            (Octagon::Bot, o) => o,
            (s, Octagon::Bot) => s.clone(),
            (Octagon::Oct(a), Octagon::Oct(b)) => widen_matrix(a, &b, |_| INF),
        }
    }

    fn widen_with(&self, other: &Self, thresholds: &Thresholds) -> Self {
        // Threshold DBM widening: a growing entry is clamped to the smallest
        // scaled-threshold candidate that still covers it, instead of going
        // straight to "no constraint". Unary rows store `2x ≤ c`, so the
        // candidate set holds both the harvested values and their doubles.
        // The left argument stays unclosed, exactly as in `widen`.
        match (self, other.close()) {
            (Octagon::Bot, o) => o,
            (s, Octagon::Bot) => s.clone(),
            (Octagon::Oct(a), Octagon::Oct(b)) => {
                widen_matrix(a, &b, |y| match thresholds.clamp_dbm(y) {
                    Some(t) if t < INF => t,
                    _ => INF,
                })
            }
        }
    }

    fn narrow(&self, other: &Self) -> Self {
        match (self.close(), other.close()) {
            (Octagon::Bot, _) | (_, Octagon::Bot) => Octagon::Bot,
            // Refine only the unconstrained (INF) entries.
            (Octagon::Oct(a), Octagon::Oct(b)) => {
                closed_pointwise(&a, &b, |x, y| if x >= INF { y } else { x })
            }
        }
    }
}

impl PartialEq for Octagon {
    fn eq(&self, other: &Self) -> bool {
        match (self.close(), other.close()) {
            (Octagon::Bot, Octagon::Bot) => true,
            (Octagon::Oct(a), Octagon::Oct(b)) => {
                a.dim == b.dim && (Rc::ptr_eq(&a.m, &b.m) || a.m == b.m)
            }
            _ => false,
        }
    }
}

impl fmt::Debug for Octagon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.close() {
            Octagon::Bot => write!(f, "⊥oct"),
            Octagon::Oct(mat) => {
                write!(f, "oct{{")?;
                let mut first = true;
                for i in 0..mat.dim {
                    let itv = self.project(i);
                    if itv != Interval::top() {
                        if !first {
                            write!(f, ", ")?;
                        }
                        write!(f, "x{i}∈{itv}")?;
                        first = false;
                    }
                    for j in 0..mat.dim {
                        if i != j {
                            let c = mat.at(pos(j), pos(i));
                            if c < INF {
                                if !first {
                                    write!(f, ", ")?;
                                }
                                write!(f, "x{i}-x{j}≤{c}")?;
                                first = false;
                            }
                        }
                    }
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::laws;
    use proptest::prelude::*;

    #[test]
    fn top_projects_to_top() {
        let o = Octagon::top(2);
        assert_eq!(o.project(0), Interval::top());
        assert!(!o.is_bottom());
    }

    #[test]
    fn interval_assignment_roundtrips() {
        let o = Octagon::top(3).assign_interval(1, &Interval::range(-4, 7));
        assert_eq!(o.project(1), Interval::range(-4, 7));
        assert_eq!(o.project(0), Interval::top());
    }

    #[test]
    fn relational_propagation() {
        // x0 ∈ [0,10]; x1 := x0 + 2; assume x0 ≥ 5 ⇒ x1 ≥ 7.
        let o = Octagon::top(2)
            .assign_interval(0, &Interval::range(0, 10))
            .assign_var_plus(1, 0, 2)
            .assume_const(0, RelOp::Ge, 5);
        assert_eq!(o.project(1), Interval::range(7, 12));
        assert_eq!(o.diff_bound(1, 0), Some(2));
        assert_eq!(o.diff_bound(0, 1), Some(-2));
    }

    #[test]
    fn contradiction_is_bottom() {
        let o = Octagon::top(1)
            .assume_const(0, RelOp::Ge, 5)
            .assume_const(0, RelOp::Lt, 5);
        assert!(o.is_bottom());
    }

    #[test]
    fn self_increment_shifts_bounds() {
        let o = Octagon::top(2)
            .assign_interval(0, &Interval::range(0, 3))
            .assign_var_plus(1, 0, 0) // x1 = x0
            .assign_var_plus(0, 0, 1); // x0 += 1
        assert_eq!(o.project(0), Interval::range(1, 4));
        // relation updated: x0 − x1 = 1.
        assert_eq!(o.diff_bound(0, 1), Some(1));
    }

    #[test]
    fn forget_drops_var_keeps_others() {
        let o = Octagon::top(2)
            .assign_interval(0, &Interval::range(1, 2))
            .assign_interval(1, &Interval::range(3, 4))
            .forget(0);
        assert_eq!(o.project(0), Interval::top());
        assert_eq!(o.project(1), Interval::range(3, 4));
    }

    #[test]
    fn forget_preserves_transitive_relations() {
        // x0 = x1, x1 = x2; forgetting x1 must keep x0 = x2.
        let o = Octagon::top(3)
            .assign_var_plus(0, 1, 0)
            .add_diff(1, 2, 0)
            .add_diff(2, 1, 0)
            .forget(1);
        assert_eq!(o.diff_bound(0, 2), Some(0));
        assert_eq!(o.diff_bound(2, 0), Some(0));
    }

    #[test]
    fn join_loses_precision_soundly() {
        let a = Octagon::top(1).assign_interval(0, &Interval::range(0, 1));
        let b = Octagon::top(1).assign_interval(0, &Interval::range(5, 6));
        let j = a.join(&b);
        assert_eq!(j.project(0), Interval::range(0, 6));
        assert!(a.le(&j) && b.le(&j));
    }

    #[test]
    fn meet_refines() {
        let a = Octagon::top(1).assign_interval(0, &Interval::range(0, 10));
        let b = Octagon::top(1).assign_interval(0, &Interval::range(5, 20));
        assert_eq!(a.meet(&b).project(0), Interval::range(5, 10));
    }

    #[test]
    fn widening_stabilizes_loop_counter() {
        // Simulates i := 0; while (i < 100) i := i + 1 at the loop head.
        let mut head = Octagon::top(1).assign_interval(0, &Interval::constant(0));
        for _ in 0..5 {
            let body = head
                .assume_const(0, RelOp::Lt, 100)
                .assign_var_plus(0, 0, 1);
            let init = Octagon::top(1).assign_interval(0, &Interval::constant(0));
            let next = head.widen(&init.join(&body));
            if next == head {
                break;
            }
            head = next;
        }
        // After widening: i ≥ 0 with unbounded top.
        assert_eq!(head.project(0).lo(), Some(Bound::Int(0)));
        assert_eq!(head.project(0).hi(), Some(Bound::PosInf));
        // Narrowing recovers the exit bound ≤ 100.
        let body = head
            .assume_const(0, RelOp::Lt, 100)
            .assign_var_plus(0, 0, 1);
        let init = Octagon::top(1).assign_interval(0, &Interval::constant(0));
        let narrowed = head.narrow(&init.join(&body));
        assert_eq!(narrowed.project(0), Interval::range(0, 100));
    }

    #[test]
    fn threshold_widening_lands_on_guard_constant() {
        // i := 0; while (i < 100) i++ — with 100 harvested, the widened
        // head stabilizes at i ≤ 100 without needing narrowing.
        let th = Thresholds::new(vec![100]);
        let mut head = Octagon::top(1).assign_interval(0, &Interval::constant(0));
        for _ in 0..8 {
            let body = head
                .assume_const(0, RelOp::Lt, 100)
                .assign_var_plus(0, 0, 1);
            let init = Octagon::top(1).assign_interval(0, &Interval::constant(0));
            let next = head.widen_with(&init.join(&body), &th);
            if next == head {
                break;
            }
            head = next;
        }
        assert_eq!(head.project(0), Interval::range(0, 100));
    }

    #[test]
    fn widen_with_empty_thresholds_is_widen() {
        let a = Octagon::top(2).assign_interval(0, &Interval::range(0, 1));
        let b = Octagon::top(2).assign_interval(0, &Interval::range(0, 2));
        assert_eq!(a.widen_with(&b, &Thresholds::none()), a.widen(&b));
    }

    #[test]
    fn widen_with_over_approximates_join() {
        let th = Thresholds::new(vec![0, 10]);
        let a = Octagon::top(1).assign_interval(0, &Interval::range(0, 3));
        let b = Octagon::top(1).assign_interval(0, &Interval::range(0, 5));
        let j = a.join(&b);
        let w = a.widen_with(&b, &th);
        assert!(j.le(&w));
        // Unary rows store 2x ≤ c, so the growing entry 2·5 = 10 clamps to
        // the candidate 10 ⇒ x ≤ 5, and a later jump past it lands on the
        // doubled candidate 20 ⇒ x ≤ 10.
        assert_eq!(w.project(0), Interval::range(0, 5));
        let c = Octagon::top(1).assign_interval(0, &Interval::range(0, 7));
        assert_eq!(w.widen_with(&c, &th).project(0), Interval::range(0, 10));
    }

    #[test]
    fn diff_and_sum_intervals() {
        let o = Octagon::top(2)
            .assign_interval(0, &Interval::range(1, 3))
            .assign_interval(1, &Interval::range(10, 20));
        // x0 − x1 ∈ [1−20, 3−10] = [−19, −7]; x0 + x1 ∈ [11, 23].
        assert_eq!(o.diff_interval(0, 1), Interval::range(-19, -7));
        assert_eq!(o.diff_interval(1, 0), Interval::range(7, 19));
        assert_eq!(o.sum_interval(0, 1), Interval::range(11, 23));
        // Adding a tighter relation narrows the diff.
        let o2 = o.assume_var(1, RelOp::Eq, 0, 9); // x1 = x0 + 9
        assert_eq!(o2.diff_interval(1, 0), Interval::constant(9));
    }

    #[test]
    fn diff_interval_on_bot_is_bot() {
        assert_eq!(Octagon::Bot.diff_interval(0, 1), Interval::Bot);
        assert_eq!(Octagon::Bot.sum_interval(0, 1), Interval::Bot);
    }

    #[test]
    fn odd_sum_strengthening_rounds_down() {
        // x ≤ 1 and x ≥ 0 and x0+x1 ≤ 1 with x1 ≥ 1 forces x0 ≤ 0.
        let o = Octagon::top(2)
            .assign_interval(0, &Interval::range(0, 1))
            .add_sum_le(0, 1, 1)
            .add_lower(1, 1);
        assert_eq!(o.project(0), Interval::range(0, 0));
    }

    fn arb_oct() -> impl Strategy<Value = Octagon> {
        let built = prop::collection::vec((-20i64..20, 0i64..10), 2).prop_flat_map(|bounds| {
            prop::collection::vec(-15i64..15, 0..3).prop_map(move |diffs| {
                let mut o = Octagon::top(2);
                for (i, (lo, w)) in bounds.iter().enumerate() {
                    o = o.assign_interval(i, &Interval::range(*lo, lo + w));
                }
                for (idx, &c) in diffs.iter().enumerate() {
                    o = o.add_diff(idx % 2, (idx + 1) % 2, c);
                }
                o
            })
        });
        prop_oneof![built, Just(Octagon::Bot)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn lattice_laws(a in arb_oct(), b in arb_oct(), c in arb_oct()) {
            laws::check_join_laws(&a.close(), &b.close(), &c.close());
            laws::check_widen_narrow_laws(&a, &b);
        }

        #[test]
        fn projection_sound_on_concrete_points(
            x in -10i64..10, y in -10i64..10, c in -25i64..25,
        ) {
            // Build an octagon that must contain the concrete point (x, y).
            let o = Octagon::top(2)
                .assign_interval(0, &Interval::range(x.min(0), x.max(0)))
                .assign_interval(1, &Interval::range(y.min(0), y.max(0)));
            let o = if x - y <= c { o.add_diff(0, 1, c) } else { o };
            prop_assert!(o.project(0).contains(x));
            prop_assert!(o.project(1).contains(y));
        }
    }
}
