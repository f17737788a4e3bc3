//! The BDD manager: reduced, ordered, hash-consed decision diagrams.
//!
//! Classic Bryant-style implementation: a node table with a unique
//! (hash-cons) map ensuring canonicity, and memoized `ite`. Terminals are
//! the constants 0 and 1. Variables are `u32` indices ordered by value —
//! choosing the variable *numbering* is choosing the variable *order*.
//!
//! # Examples
//!
//! ```
//! use sga_bdd::Bdd;
//!
//! let mut mgr = Bdd::new(4);
//! let x0 = mgr.var(0);
//! let x1 = mgr.var(1);
//! let f = mgr.and(x0, x1);
//! assert_eq!(mgr.sat_count(f), 4); // x0∧x1 over 4 vars: 2^2 models
//! let g = mgr.or(f, f);
//! assert_eq!(f, g); // hash-consing gives canonical nodes
//! ```

use sga_utils::FxHashMap;
use std::fmt;

/// A handle to a BDD node within a [`Bdd`] manager.
///
/// Handles are only meaningful with the manager that created them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BddRef(u32);

impl BddRef {
    /// The constant-false terminal.
    pub const FALSE: BddRef = BddRef(0);
    /// The constant-true terminal.
    pub const TRUE: BddRef = BddRef(1);

    /// Whether this is one of the two terminals.
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }
}

impl fmt::Debug for BddRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BddRef::FALSE => write!(f, "⊥bdd"),
            BddRef::TRUE => write!(f, "⊤bdd"),
            BddRef(i) => write!(f, "bdd#{i}"),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: u32,
    lo: BddRef,
    hi: BddRef,
}

/// The BDD manager owning the node table.
pub struct Bdd {
    nodes: Vec<Node>,
    unique: FxHashMap<Node, BddRef>,
    ite_cache: FxHashMap<(BddRef, BddRef, BddRef), BddRef>,
    num_vars: u32,
}

const TERMINAL_VAR: u32 = u32::MAX;

impl Bdd {
    /// Creates a manager for functions over `num_vars` variables.
    pub fn new(num_vars: u32) -> Bdd {
        // Index 0/1 are the terminals; their `var` sorts after all real vars.
        let terminals = vec![
            Node {
                var: TERMINAL_VAR,
                lo: BddRef::FALSE,
                hi: BddRef::FALSE,
            },
            Node {
                var: TERMINAL_VAR,
                lo: BddRef::TRUE,
                hi: BddRef::TRUE,
            },
        ];
        Bdd {
            nodes: terminals,
            unique: FxHashMap::default(),
            ite_cache: FxHashMap::default(),
            num_vars,
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Estimated bytes held by the node table and caches — the store-size
    /// metric used by the BDD-vs-set ablation.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.len() * size_of::<Node>()
            + self.unique.len() * (size_of::<Node>() + size_of::<BddRef>() + 8)
            + self.ite_cache.len()
                * (size_of::<(BddRef, BddRef, BddRef)>() + size_of::<BddRef>() + 8)
    }

    fn var_of(&self, r: BddRef) -> u32 {
        self.nodes[r.0 as usize].var
    }

    fn lo(&self, r: BddRef) -> BddRef {
        self.nodes[r.0 as usize].lo
    }

    fn hi(&self, r: BddRef) -> BddRef {
        self.nodes[r.0 as usize].hi
    }

    /// Finds-or-creates the canonical node `(var, lo, hi)`.
    fn mk(&mut self, var: u32, lo: BddRef, hi: BddRef) -> BddRef {
        debug_assert!(var < self.num_vars, "variable {var} out of range");
        if lo == hi {
            return lo;
        }
        let node = Node { var, lo, hi };
        if let Some(&r) = self.unique.get(&node) {
            return r;
        }
        let r = BddRef(u32::try_from(self.nodes.len()).expect("BDD node table overflow"));
        self.nodes.push(node);
        self.unique.insert(node, r);
        r
    }

    /// The function `x_var`.
    pub fn var(&mut self, var: u32) -> BddRef {
        self.mk(var, BddRef::FALSE, BddRef::TRUE)
    }

    /// If-then-else: the canonical ternary combinator all binary ops reduce
    /// to.
    pub fn ite(&mut self, f: BddRef, g: BddRef, h: BddRef) -> BddRef {
        // Terminal cases.
        if f == BddRef::TRUE {
            return g;
        }
        if f == BddRef::FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        if g == BddRef::TRUE && h == BddRef::FALSE {
            return f;
        }
        let key = (f, g, h);
        if let Some(&r) = self.ite_cache.get(&key) {
            return r;
        }
        let top = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let (h0, h1) = self.cofactors(h, top);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(top, lo, hi);
        self.ite_cache.insert(key, r);
        r
    }

    fn cofactors(&self, f: BddRef, var: u32) -> (BddRef, BddRef) {
        if self.var_of(f) == var {
            (self.lo(f), self.hi(f))
        } else {
            (f, f)
        }
    }

    /// Conjunction.
    pub fn and(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.ite(f, g, BddRef::FALSE)
    }

    /// Disjunction.
    pub fn or(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.ite(f, BddRef::TRUE, g)
    }

    /// Negation.
    pub fn not(&mut self, f: BddRef) -> BddRef {
        self.ite(f, BddRef::FALSE, BddRef::TRUE)
    }

    /// Difference `f ∧ ¬g`.
    pub fn diff(&mut self, f: BddRef, g: BddRef) -> BddRef {
        let ng = self.not(g);
        self.and(f, ng)
    }

    /// The conjunction of literals selecting exactly `assignment` on `vars`
    /// (a *cube*); bit `i` of `assignment` gives the polarity of `vars[i]`.
    pub fn cube(&mut self, vars: &[u32], assignment: u64) -> BddRef {
        // Build bottom-up in descending variable order for linear-time mk.
        let mut sorted: Vec<(u32, bool)> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, assignment >> i & 1 == 1))
            .collect();
        sorted.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
        let mut acc = BddRef::TRUE;
        for (v, polarity) in sorted {
            acc = if polarity {
                self.mk(v, BddRef::FALSE, acc)
            } else {
                self.mk(v, acc, BddRef::FALSE)
            };
        }
        acc
    }

    /// Evaluates `f` under a full assignment (bit `v` of `assignment` is
    /// the value of variable `v`).
    pub fn eval(&self, f: BddRef, assignment: u64) -> bool {
        let mut cur = f;
        while !cur.is_terminal() {
            let v = self.var_of(cur);
            cur = if assignment >> v & 1 == 1 {
                self.hi(cur)
            } else {
                self.lo(cur)
            };
        }
        cur == BddRef::TRUE
    }

    /// Number of satisfying assignments over all `num_vars` variables
    /// (saturating at `u128::MAX`).
    pub fn sat_count(&self, f: BddRef) -> u128 {
        fn count(bdd: &Bdd, f: BddRef, memo: &mut FxHashMap<BddRef, u128>) -> u128 {
            if f == BddRef::FALSE {
                return 0;
            }
            if f == BddRef::TRUE {
                return 1;
            }
            if let Some(&c) = memo.get(&f) {
                return c;
            }
            let v = bdd.var_of(f);
            let lo_child = bdd.lo(f);
            let hi_child = bdd.hi(f);
            let child_weight = |bdd: &Bdd, child: BddRef, memo: &mut FxHashMap<BddRef, u128>| {
                let cv = if child.is_terminal() {
                    bdd.num_vars
                } else {
                    bdd.var_of(child)
                };
                let gap = cv - v - 1;
                count(bdd, child, memo).saturating_mul(2u128.saturating_pow(gap))
            };
            let total =
                child_weight(bdd, lo_child, memo).saturating_add(child_weight(bdd, hi_child, memo));
            memo.insert(f, total);
            total
        }
        let mut memo = FxHashMap::default();
        let top_gap = if f.is_terminal() {
            self.num_vars
        } else {
            self.var_of(f)
        };
        count(self, f, &mut memo).saturating_mul(2u128.saturating_pow(top_gap))
    }

    /// Number of nodes reachable from `f` (the size of *this function's*
    /// diagram, as opposed to the whole table).
    pub fn reachable_count(&self, f: BddRef) -> usize {
        let mut seen: std::collections::HashSet<BddRef> = std::collections::HashSet::new();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !seen.insert(n) {
                continue;
            }
            stack.push(self.lo(n));
            stack.push(self.hi(n));
        }
        seen.len() + 2
    }
}

impl fmt::Debug for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Bdd {{ vars: {}, nodes: {} }}",
            self.num_vars,
            self.nodes.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn terminals_behave() {
        let mut m = Bdd::new(2);
        assert_eq!(m.and(BddRef::TRUE, BddRef::FALSE), BddRef::FALSE);
        assert_eq!(m.or(BddRef::TRUE, BddRef::FALSE), BddRef::TRUE);
        assert_eq!(m.not(BddRef::TRUE), BddRef::FALSE);
        assert_eq!(m.sat_count(BddRef::TRUE), 4);
        assert_eq!(m.sat_count(BddRef::FALSE), 0);
    }

    #[test]
    fn canonicity_collapses_equal_functions() {
        let mut m = Bdd::new(3);
        let x0 = m.var(0);
        let x1 = m.var(1);
        // x0 ∨ x1 built two different ways.
        let a = m.or(x0, x1);
        let n0 = m.not(x0);
        let n1 = m.not(x1);
        let both_false = m.and(n0, n1);
        let b = m.not(both_false);
        assert_eq!(a, b);
    }

    #[test]
    fn cube_selects_one_assignment() {
        let mut m = Bdd::new(4);
        let c = m.cube(&[0, 2, 3], 0b101); // x0=1, x2=0, x3=1
        assert_eq!(m.sat_count(c), 2); // free var: x1
        assert!(m.eval(c, 0b1001));
        assert!(m.eval(c, 0b1011));
        assert!(!m.eval(c, 0b1101));
    }

    #[test]
    fn sat_count_handles_variable_gaps() {
        let mut m = Bdd::new(5);
        let x4 = m.var(4);
        assert_eq!(m.sat_count(x4), 16);
        let x0 = m.var(0);
        let f = m.and(x0, x4);
        assert_eq!(m.sat_count(f), 8);
    }

    #[test]
    fn diff_removes_models() {
        let mut m = Bdd::new(2);
        let x0 = m.var(0);
        let x1 = m.var(1);
        let all = m.or(x0, x1); // 3 models
        let d = m.diff(all, x1); // models with x1=0: x0=1,x1=0
        assert_eq!(m.sat_count(d), 1);
    }

    proptest! {
        #[test]
        fn ops_match_truth_tables(ops in prop::collection::vec((0u8..3, 0u32..4, 0u32..4), 1..12)) {
            // Build a random expression over 4 vars in both BDD and u16
            // truth-table form; they must agree on every assignment.
            let mut m = Bdd::new(4);
            let table_of_var = |v: u32| -> u16 {
                let mut t = 0u16;
                for a in 0..16u16 {
                    if a >> v & 1 == 1 { t |= 1 << a; }
                }
                t
            };
            let mut stack: Vec<(BddRef, u16)> = vec![(BddRef::FALSE, 0)];
            for (op, v1, v2) in ops {
                let x = (m.var(v1), table_of_var(v1));
                let y = (m.var(v2), table_of_var(v2));
                let top = *stack.last().unwrap();
                let next = match op {
                    0 => (m.and(x.0, y.0), x.1 & y.1),
                    1 => (m.or(top.0, x.0), top.1 | x.1),
                    _ => {
                        let nx = m.not(x.0);
                        (m.and(top.0, nx), top.1 & !x.1)
                    }
                };
                stack.push(next);
            }
            for (f, table) in stack {
                for a in 0..16u64 {
                    prop_assert_eq!(m.eval(f, a), table >> a & 1 == 1);
                }
                prop_assert_eq!(m.sat_count(f), u128::from(table.count_ones()));
            }
        }
    }
}
