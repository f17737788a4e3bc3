//! Abstract locations `L̂` and points-to sets `P̂ = 2^L̂` (§3.1).
//!
//! An abstract location is a program variable, a field of a variable, a
//! dynamic allocation site (abstracted by its control point, per §6.1), a
//! field of an allocation site, or a procedure (for function pointers).
//!
//! [`LocSet`] is an immutable sorted set with `Rc` sharing: points-to sets
//! are copied into every state that mentions them, so cheap clones and
//! subset-shortcut unions matter. The empty set — three of the four
//! components of every scalar [`crate::Value`] — is no pointer at all.

use crate::lattice::Lattice;
use sga_ir::{Cp, FieldId, ProcId, VarId};
use std::fmt;
// `Arc`, though nothing requires `Send`: a unit's abstract values stay on
// its thread, and the workspace builds with `Rc` here. `Arc` stays until
// `Rc` is measured to pay; alternated cold passes showed no gain.
use std::sync::Arc;

type Rc<T> = Arc<T>;

/// An allocation site: the control point of the `alloc` command.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AllocSite(pub Cp);

impl fmt::Debug for AllocSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "alloc@{}", self.0)
    }
}

/// An abstract location `l ∈ L̂`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbsLoc {
    /// A program variable.
    Var(VarId),
    /// A field of a (struct) variable.
    Field(VarId, FieldId),
    /// Summarized contents of an allocation site.
    Alloc(AllocSite),
    /// A field of every object allocated at a site.
    AllocField(AllocSite, FieldId),
    /// A procedure, the target of a function pointer.
    Proc(ProcId),
}

impl AbsLoc {
    /// Whether the location summarizes *several* concrete cells (allocation
    /// sites do; so do address-taken variables in loops, but we keep the
    /// paper's simple site-based criterion). Summary locations only admit
    /// weak updates.
    pub fn is_summary(&self) -> bool {
        matches!(self, AbsLoc::Alloc(_) | AbsLoc::AllocField(_, _))
    }

    /// The variable this location refines, if any.
    pub fn var(&self) -> Option<VarId> {
        match self {
            AbsLoc::Var(v) | AbsLoc::Field(v, _) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Debug for AbsLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbsLoc::Var(v) => write!(f, "{v}"),
            AbsLoc::Field(v, fl) => write!(f, "{v}.{fl}"),
            AbsLoc::Alloc(site) => write!(f, "{site:?}"),
            AbsLoc::AllocField(site, fl) => write!(f, "{site:?}.{fl}"),
            AbsLoc::Proc(p) => write!(f, "fn:{p}"),
        }
    }
}

/// An immutable, sorted, deduplicated set of abstract locations.
///
/// The empty set is `None` and nothing else: every constructor goes through
/// [`LocSet::from_sorted`], so `Some` never holds an empty slice and the
/// derived `==` / `Hash` see one normal form. `None` costs no allocation and
/// no atomic to build, clone or drop, and fills the pointer's niche.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct LocSet(Option<Rc<[AbsLoc]>>);

impl LocSet {
    /// The empty set.
    pub const fn empty() -> LocSet {
        LocSet(None)
    }

    /// A one-element set.
    pub fn singleton(l: AbsLoc) -> LocSet {
        LocSet(Some(Rc::from([l])))
    }

    /// The set of `sorted`, which must be strictly ascending.
    fn from_sorted(sorted: Vec<AbsLoc>) -> LocSet {
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        LocSet((!sorted.is_empty()).then(|| Rc::from(sorted)))
    }

    /// The elements, ascending.
    pub fn as_slice(&self) -> &[AbsLoc] {
        self.0.as_deref().unwrap_or(&[])
    }

    /// Number of locations.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// Membership test (binary search).
    pub fn contains(&self, l: &AbsLoc) -> bool {
        self.as_slice().binary_search(l).is_ok()
    }

    /// Iterates in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, AbsLoc> {
        self.as_slice().iter()
    }

    /// The single element, if the set is a singleton — the strong-update
    /// eligibility test.
    pub fn as_singleton(&self) -> Option<AbsLoc> {
        match self.as_slice() {
            [l] => Some(*l),
            _ => None,
        }
    }

    /// Set union, sharing the larger side when one includes the other.
    #[must_use]
    pub fn union(&self, other: &LocSet) -> LocSet {
        let (a, b) = match (&self.0, &other.0) {
            (None, _) => return other.clone(),
            (_, None) => return self.clone(),
            (Some(a), Some(b)) if Rc::ptr_eq(a, b) => return self.clone(),
            (Some(a), Some(b)) => (&**a, &**b),
        };
        if other.is_subset(self) {
            return self.clone();
        }
        if self.is_subset(other) {
            return other.clone();
        }
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        LocSet::from_sorted(out)
    }

    /// Subset test over the sorted representations.
    pub fn is_subset(&self, other: &LocSet) -> bool {
        let (a, b) = (self.as_slice(), other.as_slice());
        if a.len() > b.len() {
            return false;
        }
        let mut j = 0;
        'outer: for l in a {
            while j < b.len() {
                match b[j].cmp(l) {
                    std::cmp::Ordering::Less => j += 1,
                    std::cmp::Ordering::Equal => {
                        j += 1;
                        continue 'outer;
                    }
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }
}

impl Lattice for LocSet {
    fn bottom() -> Self {
        LocSet::empty()
    }
    fn le(&self, other: &Self) -> bool {
        self.is_subset(other)
    }
    fn join(&self, other: &Self) -> Self {
        self.union(other)
    }
}

impl FromIterator<AbsLoc> for LocSet {
    fn from_iter<I: IntoIterator<Item = AbsLoc>>(iter: I) -> Self {
        let mut v: Vec<AbsLoc> = iter.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        LocSet::from_sorted(v)
    }
}

impl<'a> IntoIterator for &'a LocSet {
    type Item = &'a AbsLoc;
    type IntoIter = std::slice::Iter<'a, AbsLoc>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for LocSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::laws;
    use proptest::prelude::*;
    use sga_utils::Idx;

    fn v(i: usize) -> AbsLoc {
        AbsLoc::Var(VarId::new(i))
    }

    #[test]
    fn union_dedups_and_sorts() {
        let a: LocSet = [v(3), v(1)].into_iter().collect();
        let b: LocSet = [v(2), v(1)].into_iter().collect();
        let u = a.union(&b);
        assert_eq!(
            u.iter().copied().collect::<Vec<_>>(),
            vec![v(1), v(2), v(3)]
        );
    }

    #[test]
    fn union_shares_on_subset() {
        let a: LocSet = [v(1), v(2), v(3)].into_iter().collect();
        let b: LocSet = [v(2)].into_iter().collect();
        let u = a.union(&b);
        let (Some(u), Some(a)) = (&u.0, &a.0) else {
            panic!("non-empty sets are allocated");
        };
        assert!(Rc::ptr_eq(u, a), "superset side should be shared");
    }

    #[test]
    fn singleton_detection() {
        assert_eq!(LocSet::singleton(v(4)).as_singleton(), Some(v(4)));
        let two: LocSet = [v(1), v(2)].into_iter().collect();
        assert_eq!(two.as_singleton(), None);
        assert_eq!(LocSet::empty().as_singleton(), None);
    }

    #[test]
    fn summary_flags() {
        use sga_ir::{NodeId, ProcId};
        let site = AllocSite(Cp::new(ProcId::new(0), NodeId::new(5)));
        assert!(AbsLoc::Alloc(site).is_summary());
        assert!(!v(0).is_summary());
        assert!(!AbsLoc::Proc(ProcId::new(1)).is_summary());
    }

    proptest! {
        #[test]
        fn set_ops_match_btreeset(
            xs in prop::collection::btree_set(0usize..40, 0..20),
            ys in prop::collection::btree_set(0usize..40, 0..20),
        ) {
            let a: LocSet = xs.iter().map(|&i| v(i)).collect();
            let b: LocSet = ys.iter().map(|&i| v(i)).collect();
            let u = a.union(&b);
            let want: Vec<AbsLoc> = xs.union(&ys).map(|&i| v(i)).collect();
            prop_assert_eq!(u.iter().copied().collect::<Vec<_>>(), want);
            prop_assert_eq!(a.is_subset(&b), xs.is_subset(&ys));
            prop_assert_eq!(a.contains(&v(7)), xs.contains(&7));
        }

        /// However an empty set is built — and the proptest ranges start at
        /// zero elements, so the lattice laws below run over it too — it is
        /// the one normal form: `==`, `Hash`, `is_empty` and `Debug` agree.
        #[test]
        fn every_empty_set_is_the_normal_form(
            xs in prop::collection::btree_set(0usize..20, 0..6),
        ) {
            use std::hash::{Hash, Hasher};
            let hash = |s: &LocSet| {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                s.hash(&mut h);
                h.finish()
            };
            let a: LocSet = xs.iter().map(|&i| v(i)).collect();
            let none = LocSet::empty();
            let empties = [
                LocSet::bottom(),
                std::iter::empty().collect(),
                none.union(&none),
                none.join(&LocSet::bottom()),
                none.widen(&none),
                none.narrow(&a),
                LocSet::from_sorted(Vec::new()),
                // Nothing removes elements, so the only other way to an
                // empty result is an empty input to a filtering collect.
                a.iter().copied().filter(|_| false).collect(),
            ];
            for e in &empties {
                prop_assert!(e.0.is_none(), "an empty set holds no pointer");
                prop_assert!(e.is_empty() && e.iter().len() == 0 && e.as_singleton().is_none());
                prop_assert!(*e == none && hash(e) == hash(&none));
                prop_assert_eq!(format!("{e:?}"), "{}");
                prop_assert!(e.is_subset(&a) && (a.is_subset(e) == a.is_empty()));
                // ⊥ is the unit, and the non-empty side is shared as it is.
                prop_assert!(e.union(&a) == a && a.union(e) == a);
            }
            // A non-empty set never compares or hashes like the empty one.
            prop_assert_eq!(a == none, xs.is_empty());
            prop_assert_eq!(a.0.is_none(), xs.is_empty());
        }

        #[test]
        fn lattice_laws(
            xs in prop::collection::btree_set(0usize..20, 0..10),
            ys in prop::collection::btree_set(0usize..20, 0..10),
            zs in prop::collection::btree_set(0usize..20, 0..10),
        ) {
            let a: LocSet = xs.iter().map(|&i| v(i)).collect();
            let b: LocSet = ys.iter().map(|&i| v(i)).collect();
            let c: LocSet = zs.iter().map(|&i| v(i)).collect();
            laws::check_join_laws(&a, &b, &c);
            laws::check_widen_narrow_laws(&a, &b);
        }
    }
}
