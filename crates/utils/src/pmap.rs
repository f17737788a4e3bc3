//! A persistent (immutable, structure-sharing) ordered map.
//!
//! Dense abstract interpretation keeps one abstract state — a finite map
//! `AbsLoc → Value` — *per control point*. Naively copying `BTreeMap`s makes
//! that quadratic in program size; the original Sparrow implementation relies
//! on OCaml's persistent `Map` for structural sharing, and this module is the
//! Rust equivalent: a height-balanced (AVL-style) search tree whose nodes are
//! reference-counted, so `insert` returns a new map sharing all untouched
//! subtrees with the old one.
//!
//! The balancing scheme follows OCaml's `Map` (heights, rotation when one
//! side is more than 2 taller), and `union_with` uses the split-based
//! divide-and-conquer algorithm, which is `O(m log(n/m + 1))` and — crucially
//! for fixpoint iteration — returns physically shared subtrees whenever the
//! merge does not change them.
//!
//! # Examples
//!
//! ```
//! use sga_utils::PMap;
//!
//! let m1: PMap<&str, i32> = PMap::new().insert("a", 1).insert("b", 2);
//! let m2 = m1.insert("a", 10);
//! assert_eq!(m1.get(&"a"), Some(&1));  // m1 unchanged
//! assert_eq!(m2.get(&"a"), Some(&10));
//! let joined = m1.union_with(&m2, |_k, x, y| x + y);
//! assert_eq!(joined.get(&"a"), Some(&11));
//! assert_eq!(joined.get(&"b"), Some(&2));
//! ```

use std::cmp::Ordering;
use std::fmt;
// `Arc`, not `Rc`: abstract states (pre-analysis results, fixpoint tables)
// are shared read-only across the pipeline's worker threads, so the
// structural-sharing pointer must be `Send + Sync`. The atomic refcount
// costs a few percent on clone-heavy paths; sequential callers pay it too,
// which keeps `--jobs 1` and `--jobs N` byte-identical for free.
use std::sync::Arc;

type Rc<T> = Arc<T>;

type Link<K, V> = Option<Rc<Node<K, V>>>;

struct Node<K, V> {
    left: Link<K, V>,
    key: K,
    value: V,
    right: Link<K, V>,
    height: u32,
    size: usize,
}

/// A persistent ordered map from `K` to `V`.
///
/// Cloning is O(1) (bumps one refcount); all updates return new maps sharing
/// structure with the input.
pub struct PMap<K, V> {
    root: Link<K, V>,
}

impl<K, V> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        PMap {
            root: self.root.clone(),
        }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

fn height<K, V>(l: &Link<K, V>) -> u32 {
    l.as_ref().map_or(0, |n| n.height)
}

fn size<K, V>(l: &Link<K, V>) -> usize {
    l.as_ref().map_or(0, |n| n.size)
}

fn mk<K, V>(left: Link<K, V>, key: K, value: V, right: Link<K, V>) -> Link<K, V> {
    let height = height(&left).max(height(&right)) + 1;
    let size = size(&left) + size(&right) + 1;
    Some(Rc::new(Node {
        left,
        key,
        value,
        right,
        height,
        size,
    }))
}

/// Rebalances assuming `left`/`right` heights differ by at most 3
/// (the precondition of OCaml Map's `bal`).
fn bal<K: Clone, V: Clone>(left: Link<K, V>, key: K, value: V, right: Link<K, V>) -> Link<K, V> {
    let hl = height(&left);
    let hr = height(&right);
    if hl > hr + 2 {
        let l = left.expect("left taller than right+2 implies nonempty");
        if height(&l.left) >= height(&l.right) {
            mk(
                l.left.clone(),
                l.key.clone(),
                l.value.clone(),
                mk(l.right.clone(), key, value, right),
            )
        } else {
            let lr = l
                .right
                .as_ref()
                .expect("right-leaning left child is nonempty");
            mk(
                mk(
                    l.left.clone(),
                    l.key.clone(),
                    l.value.clone(),
                    lr.left.clone(),
                ),
                lr.key.clone(),
                lr.value.clone(),
                mk(lr.right.clone(), key, value, right),
            )
        }
    } else if hr > hl + 2 {
        let r = right.expect("right taller than left+2 implies nonempty");
        if height(&r.right) >= height(&r.left) {
            mk(
                mk(left, key, value, r.left.clone()),
                r.key.clone(),
                r.value.clone(),
                r.right.clone(),
            )
        } else {
            let rl = r
                .left
                .as_ref()
                .expect("left-leaning right child is nonempty");
            mk(
                mk(left, key, value, rl.left.clone()),
                rl.key.clone(),
                rl.value.clone(),
                mk(
                    rl.right.clone(),
                    r.key.clone(),
                    r.value.clone(),
                    r.right.clone(),
                ),
            )
        }
    } else {
        mk(left, key, value, right)
    }
}

/// Joins two trees of arbitrary relative heights around a middle entry.
fn join<K: Clone, V: Clone>(left: Link<K, V>, key: K, value: V, right: Link<K, V>) -> Link<K, V> {
    let hl = height(&left);
    let hr = height(&right);
    if hl > hr + 2 {
        let l = left.as_ref().unwrap();
        bal(
            l.left.clone(),
            l.key.clone(),
            l.value.clone(),
            join(l.right.clone(), key, value, right),
        )
    } else if hr > hl + 2 {
        let r = right.as_ref().unwrap();
        bal(
            join(left, key, value, r.left.clone()),
            r.key.clone(),
            r.value.clone(),
            r.right.clone(),
        )
    } else {
        mk(left, key, value, right)
    }
}

fn min_binding<K, V>(mut n: &Rc<Node<K, V>>) -> (&K, &V) {
    while let Some(l) = n.left.as_ref() {
        n = l;
    }
    (&n.key, &n.value)
}

/// Concatenates two trees where every key of `left` < every key of `right`.
fn concat<K: Clone + Ord, V: Clone>(left: Link<K, V>, right: Link<K, V>) -> Link<K, V> {
    match (&left, &right) {
        (None, _) => right,
        (_, None) => left,
        (_, Some(r)) => {
            let (k, v) = min_binding(r);
            let (k, v) = (k.clone(), v.clone());
            let right = remove_min(right);
            join(left, k, v, right)
        }
    }
}

fn remove_min<K: Clone + Ord, V: Clone>(link: Link<K, V>) -> Link<K, V> {
    let n = link.expect("remove_min on empty tree");
    match &n.left {
        None => n.right.clone(),
        Some(_) => bal(
            remove_min(n.left.clone()),
            n.key.clone(),
            n.value.clone(),
            n.right.clone(),
        ),
    }
}

fn insert_rec<K: Clone + Ord, V: Clone>(link: &Link<K, V>, key: K, value: V) -> Link<K, V> {
    match link {
        None => mk(None, key, value, None),
        Some(n) => match key.cmp(&n.key) {
            Ordering::Less => bal(
                insert_rec(&n.left, key, value),
                n.key.clone(),
                n.value.clone(),
                n.right.clone(),
            ),
            Ordering::Greater => bal(
                n.left.clone(),
                n.key.clone(),
                n.value.clone(),
                insert_rec(&n.right, key, value),
            ),
            Ordering::Equal => mk(n.left.clone(), key, value, n.right.clone()),
        },
    }
}

fn remove_rec<K: Clone + Ord, V: Clone>(link: &Link<K, V>, key: &K) -> (Link<K, V>, bool) {
    match link {
        None => (None, false),
        Some(n) => match key.cmp(&n.key) {
            Ordering::Less => {
                let (l, removed) = remove_rec(&n.left, key);
                if removed {
                    (
                        bal(l, n.key.clone(), n.value.clone(), n.right.clone()),
                        true,
                    )
                } else {
                    (link.clone(), false)
                }
            }
            Ordering::Greater => {
                let (r, removed) = remove_rec(&n.right, key);
                if removed {
                    (bal(n.left.clone(), n.key.clone(), n.value.clone(), r), true)
                } else {
                    (link.clone(), false)
                }
            }
            Ordering::Equal => (concat(n.left.clone(), n.right.clone()), true),
        },
    }
}

/// Splits into (< key, at key, > key).
#[allow(clippy::type_complexity)]
fn split<K: Clone + Ord, V: Clone>(
    link: &Link<K, V>,
    key: &K,
) -> (Link<K, V>, Option<V>, Link<K, V>) {
    match link {
        None => (None, None, None),
        Some(n) => match key.cmp(&n.key) {
            Ordering::Equal => (n.left.clone(), Some(n.value.clone()), n.right.clone()),
            Ordering::Less => {
                let (ll, hit, lr) = split(&n.left, key);
                (
                    ll,
                    hit,
                    join(lr, n.key.clone(), n.value.clone(), n.right.clone()),
                )
            }
            Ordering::Greater => {
                let (rl, hit, rr) = split(&n.right, key);
                (
                    join(n.left.clone(), n.key.clone(), n.value.clone(), rl),
                    hit,
                    rr,
                )
            }
        },
    }
}

fn union_rec<K: Clone + Ord, V: Clone>(
    a: &Link<K, V>,
    b: &Link<K, V>,
    f: &mut impl FnMut(&K, &V, &V) -> V,
) -> Link<K, V> {
    match (a, b) {
        (None, _) => b.clone(),
        (_, None) => a.clone(),
        (Some(an), Some(bn)) => {
            if Rc::ptr_eq(an, bn) {
                // Identical subtrees: merging is the identity for any
                // idempotent f used by lattice joins. We still must apply f in
                // general, but fixpoint engines only use idempotent joins, so
                // sharing here is both a correctness-preserving and decisive
                // optimization. Callers needing non-idempotent merges must not
                // pass aliased maps.
                return a.clone();
            }
            // Split the smaller tree by the larger tree's root for balance.
            if an.size >= bn.size {
                let (bl, hit, br) = split(b, &an.key);
                let value = match hit {
                    Some(bv) => f(&an.key, &an.value, &bv),
                    None => an.value.clone(),
                };
                join(
                    union_rec(&an.left, &bl, f),
                    an.key.clone(),
                    value,
                    union_rec(&an.right, &br, f),
                )
            } else {
                let (al, hit, ar) = split(a, &bn.key);
                let value = match hit {
                    Some(av) => f(&bn.key, &av, &bn.value),
                    None => bn.value.clone(),
                };
                join(
                    union_rec(&al, &bn.left, f),
                    bn.key.clone(),
                    value,
                    union_rec(&ar, &bn.right, f),
                )
            }
        }
    }
}

impl<K, V> PMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        PMap { root: None }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        size(&self.root)
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Whether the two maps share the same root node (O(1) equality witness).
    pub fn ptr_eq(&self, other: &Self) -> bool {
        match (&self.root, &other.root) {
            (None, None) => true,
            (Some(a), Some(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// The perfectly balanced tree of the next `n` entries of `entries`.
fn build_balanced<K, V>(entries: &mut std::vec::IntoIter<(K, V)>, n: usize) -> Link<K, V> {
    if n == 0 {
        return None;
    }
    let left = build_balanced(entries, n / 2);
    let (key, value) = entries.next().expect("n entries remain");
    let right = build_balanced(entries, n - n / 2 - 1);
    mk(left, key, value, right)
}

impl<K: Clone + Ord, V: Clone> PMap<K, V> {
    /// Builds the map of `entries`, which must be in strictly ascending key
    /// order, in O(n): one node per entry, no comparisons, no rebalancing.
    pub fn from_sorted_vec(entries: Vec<(K, V)>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "from_sorted_vec needs strictly ascending keys"
        );
        let n = entries.len();
        PMap {
            root: build_balanced(&mut entries.into_iter(), n),
        }
    }

    /// The entries in ascending key order — what [`PMap::from_sorted_vec`]
    /// takes.
    pub fn to_sorted_vec(&self) -> Vec<(K, V)> {
        self.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Looks up `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut cur = self.root.as_ref();
        while let Some(n) = cur {
            match key.cmp(&n.key) {
                Ordering::Less => cur = n.left.as_ref(),
                Ordering::Greater => cur = n.right.as_ref(),
                Ordering::Equal => return Some(&n.value),
            }
        }
        None
    }

    /// Whether `key` is bound.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Returns a new map with `key` bound to `value`.
    #[must_use = "PMap::insert returns the updated map"]
    pub fn insert(&self, key: K, value: V) -> Self {
        PMap {
            root: insert_rec(&self.root, key, value),
        }
    }

    /// Returns a new map with `key` unbound (same map if it was absent).
    #[must_use = "PMap::remove returns the updated map"]
    pub fn remove(&self, key: &K) -> Self {
        PMap {
            root: remove_rec(&self.root, key).0,
        }
    }

    /// Merges two maps. Keys present in both are combined with `f`; keys in
    /// only one side are kept as-is.
    ///
    /// Aliased subtrees are returned unmerged (see module docs), so `f` must
    /// be idempotent (`f(k, v, v) == v`) — which lattice joins are.
    #[must_use = "PMap::union_with returns the merged map"]
    pub fn union_with(&self, other: &Self, mut f: impl FnMut(&K, &V, &V) -> V) -> Self {
        PMap {
            root: union_rec(&self.root, &other.root, &mut f),
        }
    }

    /// Returns the map restricted to keys satisfying `pred`.
    #[must_use = "PMap::filter returns the restricted map"]
    pub fn filter(&self, mut pred: impl FnMut(&K, &V) -> bool) -> Self {
        let mut out = PMap::new();
        for (k, v) in self.iter() {
            if pred(k, v) {
                out = out.insert(k.clone(), v.clone());
            }
        }
        out
    }

    /// In-order iterator over `(key, value)` pairs.
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut stack = Vec::new();
        push_left(&self.root, &mut stack);
        Iter { stack }
    }

    /// Iterator over keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Iterator over values in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }
}

fn push_left<'a, K, V>(mut link: &'a Link<K, V>, stack: &mut Vec<&'a Node<K, V>>) {
    while let Some(n) = link {
        stack.push(n);
        link = &n.left;
    }
}

/// In-order iterator over a [`PMap`], produced by [`PMap::iter`].
pub struct Iter<'a, K, V> {
    stack: Vec<&'a Node<K, V>>,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.stack.pop()?;
        push_left(&n.right, &mut self.stack);
        Some((&n.key, &n.value))
    }
}

impl<K: Clone + Ord, V: Clone> FromIterator<(K, V)> for PMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut m = PMap::new();
        for (k, v) in iter {
            m = m.insert(k, v);
        }
        m
    }
}

impl<K: Clone + Ord + PartialEq, V: Clone + PartialEq> PartialEq for PMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || (self.len() == other.len() && self.iter().eq(other.iter()))
    }
}

impl<K: Clone + Ord + Eq, V: Clone + Eq> Eq for PMap<K, V> {}

impl<K: Clone + Ord + fmt::Debug, V: Clone + fmt::Debug> fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn check_balance<K, V>(link: &Link<K, V>) -> u32 {
        match link {
            None => 0,
            Some(n) => {
                let hl = check_balance(&n.left);
                let hr = check_balance(&n.right);
                assert!(hl.abs_diff(hr) <= 2, "unbalanced node: {hl} vs {hr}");
                assert_eq!(n.height, hl.max(hr) + 1, "stale height");
                assert_eq!(n.size, size(&n.left) + size(&n.right) + 1, "stale size");
                n.height
            }
        }
    }

    #[test]
    fn insert_get_persistence() {
        let m0: PMap<i32, i32> = PMap::new();
        let m1 = m0.insert(1, 10);
        let m2 = m1.insert(2, 20);
        let m3 = m2.insert(1, 11);
        assert_eq!(m0.get(&1), None);
        assert_eq!(m1.get(&1), Some(&10));
        assert_eq!(m3.get(&1), Some(&11));
        assert_eq!(m3.get(&2), Some(&20));
        assert_eq!(m2.get(&1), Some(&10), "older versions unaffected");
    }

    #[test]
    fn remove_absent_is_noop_and_shares() {
        let m: PMap<i32, i32> = (0..10).map(|i| (i, i)).collect();
        let r = m.remove(&99);
        assert!(r.ptr_eq(&m));
        let r2 = m.remove(&5);
        assert_eq!(r2.len(), 9);
        assert!(!r2.contains_key(&5));
    }

    #[test]
    fn union_prefers_combined() {
        let a: PMap<i32, i32> = [(1, 1), (2, 2)].into_iter().collect();
        let b: PMap<i32, i32> = [(2, 20), (3, 30)].into_iter().collect();
        let u = a.union_with(&b, |_, x, y| x.max(y).to_owned());
        assert_eq!(u.get(&1), Some(&1));
        assert_eq!(u.get(&2), Some(&20));
        assert_eq!(u.get(&3), Some(&30));
    }

    #[test]
    fn union_aliased_is_identity() {
        let a: PMap<i32, i32> = (0..100).map(|i| (i, i)).collect();
        let b = a.clone();
        let mut calls = 0;
        let u = a.union_with(&b, |_, x, _| {
            calls += 1;
            *x
        });
        assert!(u.ptr_eq(&a));
        assert_eq!(calls, 0, "aliased union should not visit entries");
    }

    #[test]
    fn iteration_is_ordered() {
        let m: PMap<i32, i32> = [(5, 0), (1, 0), (3, 0), (2, 0), (4, 0)]
            .into_iter()
            .collect();
        let keys: Vec<i32> = m.keys().copied().collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn filter_restricts() {
        let m: PMap<i32, i32> = (0..10).map(|i| (i, i)).collect();
        let even = m.filter(|k, _| k % 2 == 0);
        assert_eq!(even.len(), 5);
        assert!(even.contains_key(&4) && !even.contains_key(&3));
    }

    proptest! {
        #[test]
        fn behaves_like_btreemap(ops in prop::collection::vec((0u8..3, 0i64..64, 0i64..1000), 0..200)) {
            let mut model: BTreeMap<i64, i64> = BTreeMap::new();
            let mut map: PMap<i64, i64> = PMap::new();
            for (op, k, v) in ops {
                match op {
                    0 => { model.insert(k, v); map = map.insert(k, v); }
                    1 => { model.remove(&k); map = map.remove(&k); }
                    _ => { prop_assert_eq!(model.get(&k), map.get(&k)); }
                }
                check_balance(&map.root);
            }
            prop_assert_eq!(map.len(), model.len());
            let got: Vec<(i64, i64)> = map.iter().map(|(k, v)| (*k, *v)).collect();
            let want: Vec<(i64, i64)> = model.into_iter().collect();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn from_sorted_vec_matches_inserts_and_stays_balanced(
            base in prop::collection::btree_map(0i64..64, 0i64..1000, 0..48),
            ops in prop::collection::vec((0u8..3, 0i64..64, 0i64..1000), 0..60),
            other in prop::collection::btree_map(0i64..64, 0i64..1000, 0..24),
        ) {
            let mut model = base.clone();
            let mut map = PMap::from_sorted_vec(base.clone().into_iter().collect());
            check_balance(&map.root);
            prop_assert_eq!(&map.to_sorted_vec(), &base.clone().into_iter().collect::<Vec<_>>());
            prop_assert_eq!(&map, &base.into_iter().collect::<PMap<i64, i64>>());
            // `bal` assumes sibling heights differ by at most 3: updates on
            // top of a bulk-built tree must keep finding that true.
            for (op, k, v) in ops {
                match op {
                    0 => { model.insert(k, v); map = map.insert(k, v); }
                    1 => { model.remove(&k); map = map.remove(&k); }
                    _ => {
                        let rhs: PMap<i64, i64> = other.clone().into_iter().collect();
                        map = map.union_with(&rhs, |_, x, y| *x.max(y));
                        for (&k, &v) in &other {
                            model.entry(k).and_modify(|w| *w = (*w).max(v)).or_insert(v);
                        }
                    }
                }
                check_balance(&map.root);
            }
            let got: Vec<(i64, i64)> = map.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(got, model.into_iter().collect::<Vec<_>>());
        }

        #[test]
        fn union_matches_model(
            xs in prop::collection::btree_map(0i64..64, 0i64..100, 0..40),
            ys in prop::collection::btree_map(0i64..64, 0i64..100, 0..40),
        ) {
            let a: PMap<i64, i64> = xs.clone().into_iter().collect();
            let b: PMap<i64, i64> = ys.clone().into_iter().collect();
            let u = a.union_with(&b, |_, x, y| *x.max(y));
            check_balance(&u.root);
            let mut want = xs.clone();
            for (k, v) in ys {
                want.entry(k).and_modify(|w| *w = (*w).max(v)).or_insert(v);
            }
            let got: Vec<(i64, i64)> = u.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(got, want.into_iter().collect::<Vec<_>>());
        }
    }
}
