//! Array blocks: the paper's abstraction of arrays (§6.1).
//!
//! "The analysis abstracts an array by a set of tuples of base address,
//! offset, and size" — an [`ArrayBlk`] maps each base allocation site (or
//! fixed-size global buffer) to the interval of offsets a pointer may have
//! into it and the interval of the block's size. Pointer arithmetic shifts
//! offsets; dereferencing reads the base's summarized contents; the
//! buffer-overrun checker compares offset against size.

use crate::interval::Interval;
use crate::lattice::{Lattice, Thresholds};
use crate::locs::AbsLoc;
use std::fmt;
// `Arc`, though nothing requires `Send`: a unit's abstract values stay on
// its thread, and the workspace builds with `Rc` here. `Arc` stays until
// `Rc` is measured to pay; alternated cold passes showed no gain.
use std::sync::Arc;

type Rc<T> = Arc<T>;

/// Offset/size information for one array base.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ArrInfo {
    /// Possible byte/element offsets of the pointer into the block.
    pub offset: Interval,
    /// Possible sizes of the block.
    pub size: Interval,
}

impl ArrInfo {
    /// Fresh pointer to the start of a block of `size` elements.
    pub fn fresh(size: Interval) -> ArrInfo {
        ArrInfo {
            offset: Interval::constant(0),
            size,
        }
    }
}

impl Lattice for ArrInfo {
    fn bottom() -> Self {
        ArrInfo {
            offset: Interval::Bot,
            size: Interval::Bot,
        }
    }
    fn le(&self, other: &Self) -> bool {
        self.offset.le(&other.offset) && self.size.le(&other.size)
    }
    fn join(&self, other: &Self) -> Self {
        ArrInfo {
            offset: self.offset.join(&other.offset),
            size: self.size.join(&other.size),
        }
    }
    fn widen(&self, other: &Self) -> Self {
        ArrInfo {
            offset: self.offset.widen(&other.offset),
            size: self.size.widen(&other.size),
        }
    }
    fn widen_with(&self, other: &Self, thresholds: &Thresholds) -> Self {
        ArrInfo {
            offset: self.offset.widen_with(&other.offset, thresholds),
            size: self.size.widen_with(&other.size, thresholds),
        }
    }
    fn narrow(&self, other: &Self) -> Self {
        ArrInfo {
            offset: self.offset.narrow(&other.offset),
            size: self.size.narrow(&other.size),
        }
    }
}

/// A set of `(base, offset, size)` tuples, sorted by base.
///
/// No blocks is `None` and nothing else (see [`crate::LocSet`]): every
/// constructor goes through [`ArrayBlk::from_sorted`], so the derived `==`
/// and `Hash` see one normal form and a value without an array component allocates
/// nothing for it.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ArrayBlk(Option<Rc<[(AbsLoc, ArrInfo)]>>);

impl ArrayBlk {
    /// The empty block set (no array value).
    pub const fn empty() -> ArrayBlk {
        ArrayBlk(None)
    }

    /// A single fresh block at `base` with `size` elements.
    pub fn alloc(base: AbsLoc, size: Interval) -> ArrayBlk {
        ArrayBlk(Some(Rc::from([(base, ArrInfo::fresh(size))])))
    }

    /// The blocks of `sorted`, which must be strictly ascending by base.
    fn from_sorted(sorted: Vec<(AbsLoc, ArrInfo)>) -> ArrayBlk {
        debug_assert!(sorted.windows(2).all(|w| w[0].0 < w[1].0));
        ArrayBlk((!sorted.is_empty()).then(|| Rc::from(sorted)))
    }

    fn as_slice(&self) -> &[(AbsLoc, ArrInfo)] {
        self.0.as_deref().unwrap_or(&[])
    }

    /// Whether no blocks are present.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// Number of bases.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Iterates over `(base, info)` pairs.
    pub fn iter(&self) -> std::slice::Iter<'_, (AbsLoc, ArrInfo)> {
        self.as_slice().iter()
    }

    /// Info for one base.
    pub fn get(&self, base: &AbsLoc) -> Option<&ArrInfo> {
        let blocks = self.as_slice();
        blocks
            .binary_search_by(|(b, _)| b.cmp(base))
            .ok()
            .map(|i| &blocks[i].1)
    }

    /// The base locations a dereference of this pointer-to-array reaches.
    pub fn bases(&self) -> impl Iterator<Item = AbsLoc> + '_ {
        self.iter().map(|(b, _)| *b)
    }

    /// Whether both sides are the same allocation (or both empty).
    fn ptr_eq(&self, other: &ArrayBlk) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Pointer arithmetic: shifts every offset by `delta` (`p + i`).
    #[must_use]
    pub fn shift(&self, delta: &Interval) -> ArrayBlk {
        if self.is_empty() || delta.as_const() == Some(0) {
            return self.clone();
        }
        let shifted = |&(b, info): &(AbsLoc, ArrInfo)| {
            let offset = info.offset.add(delta);
            (b, ArrInfo { offset, ..info })
        };
        ArrayBlk::from_sorted(self.iter().map(shifted).collect())
    }

    fn merge_with(&self, other: &ArrayBlk, f: impl Fn(&ArrInfo, &ArrInfo) -> ArrInfo) -> ArrayBlk {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() || self.ptr_eq(other) {
            return self.clone();
        }
        let (a, b) = (self.as_slice(), other.as_slice());
        let mut out: Vec<(AbsLoc, ArrInfo)> = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push((a[i].0, f(&a[i].1, &b[j].1)));
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        ArrayBlk::from_sorted(out)
    }
}

impl Lattice for ArrayBlk {
    fn bottom() -> Self {
        ArrayBlk::empty()
    }

    fn le(&self, other: &Self) -> bool {
        self.ptr_eq(other)
            || self
                .iter()
                .all(|(b, info)| other.get(b).is_some_and(|o| info.le(o)))
    }

    fn join(&self, other: &Self) -> Self {
        self.merge_with(other, |a, b| a.join(b))
    }

    fn widen(&self, other: &Self) -> Self {
        self.merge_with(other, |a, b| a.widen(b))
    }

    fn widen_with(&self, other: &Self, thresholds: &Thresholds) -> Self {
        self.merge_with(other, |a, b| a.widen_with(b, thresholds))
    }

    fn narrow(&self, other: &Self) -> Self {
        // Narrowing only refines infinite bounds of entries present in both;
        // bases are kept (they were sound in `self`).
        if self.ptr_eq(other) {
            return self.clone();
        }
        let narrowed = |&(b, info): &(AbsLoc, ArrInfo)| match other.get(&b) {
            Some(o) => (b, info.narrow(o)),
            None => (b, info),
        };
        ArrayBlk::from_sorted(self.iter().map(narrowed).collect())
    }
}

impl FromIterator<(AbsLoc, ArrInfo)> for ArrayBlk {
    fn from_iter<I: IntoIterator<Item = (AbsLoc, ArrInfo)>>(iter: I) -> Self {
        let mut v: Vec<(AbsLoc, ArrInfo)> = iter.into_iter().collect();
        v.sort_unstable_by_key(|a| a.0);
        v.dedup_by(|a, b| {
            if a.0 == b.0 {
                b.1 = b.1.join(&a.1);
                true
            } else {
                false
            }
        });
        ArrayBlk::from_sorted(v)
    }
}

impl fmt::Debug for ArrayBlk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut set = f.debug_set();
        for (b, info) in self.iter() {
            set.entry(&format_args!(
                "⟨{b:?}, off {}, sz {}⟩",
                info.offset, info.size
            ));
        }
        set.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::laws;
    use proptest::prelude::*;
    use sga_ir::{Cp, NodeId, ProcId, VarId};
    use sga_utils::Idx;

    fn site(n: usize) -> AbsLoc {
        AbsLoc::Alloc(crate::locs::AllocSite(Cp::new(
            ProcId::new(0),
            NodeId::new(n),
        )))
    }

    #[test]
    fn alloc_and_shift() {
        let blk = ArrayBlk::alloc(site(1), Interval::constant(10));
        let shifted = blk.shift(&Interval::range(2, 3));
        let info = shifted.get(&site(1)).unwrap();
        assert_eq!(info.offset, Interval::range(2, 3));
        assert_eq!(info.size, Interval::constant(10));
        // Shift by zero shares.
        assert!(blk.shift(&Interval::constant(0)) == blk);
    }

    #[test]
    fn join_merges_bases() {
        let a = ArrayBlk::alloc(site(1), Interval::constant(10));
        let b = ArrayBlk::alloc(site(2), Interval::constant(20));
        let j = a.join(&b);
        assert_eq!(j.len(), 2);
        assert!(j.get(&site(1)).is_some() && j.get(&site(2)).is_some());
    }

    #[test]
    fn join_same_base_joins_info() {
        let a = ArrayBlk::alloc(site(1), Interval::constant(10));
        let b = ArrayBlk::alloc(site(1), Interval::constant(20)).shift(&Interval::constant(5));
        let j = a.join(&b);
        let info = j.get(&site(1)).unwrap();
        assert_eq!(info.offset, Interval::range(0, 5));
        assert_eq!(info.size, Interval::range(10, 20));
    }

    #[test]
    fn le_requires_base_coverage() {
        let a = ArrayBlk::alloc(site(1), Interval::constant(10));
        let b = a.join(&ArrayBlk::alloc(site(2), Interval::constant(5)));
        assert!(a.le(&b));
        assert!(!b.le(&a));
        assert!(ArrayBlk::empty().le(&a));
    }

    #[test]
    fn lattice_laws_on_samples() {
        let var = AbsLoc::Var(VarId::new(0));
        let samples = [
            ArrayBlk::empty(),
            ArrayBlk::alloc(site(1), Interval::constant(10)),
            ArrayBlk::alloc(site(2), Interval::range(5, 9)),
            ArrayBlk::alloc(var, Interval::top()).shift(&Interval::range(-1, 1)),
        ];
        for a in &samples {
            for b in &samples {
                for c in &samples {
                    laws::check_join_laws(a, b, c);
                    laws::check_widen_narrow_laws(a, b);
                }
            }
        }
    }

    /// Blocks over bases `site(0..6)`, none included.
    fn blocks() -> impl Strategy<Value = ArrayBlk> {
        let info = (0i64..4, 0i64..4, 1i64..12).prop_map(|(lo, len, size)| ArrInfo {
            offset: Interval::range(lo, lo + len),
            size: Interval::constant(size),
        });
        prop::collection::btree_map(0usize..6, info, 0..4)
            .prop_map(|m| m.into_iter().map(|(n, info)| (site(n), info)).collect())
    }

    proptest! {
        /// However "no blocks" is built it is the one normal form, and
        /// `blocks()` starts at zero entries, so the laws run over it.
        #[test]
        fn every_empty_block_set_is_the_normal_form(a in blocks(), d in -3i64..4) {
            let none = ArrayBlk::empty();
            let delta = Interval::constant(d);
            let empties = [
                ArrayBlk::bottom(),
                std::iter::empty().collect(),
                ArrayBlk::from_sorted(Vec::new()),
                none.shift(&delta),
                none.join(&none),
                none.widen(&ArrayBlk::bottom()),
                none.widen_with(&none, &Thresholds::new(vec![1, 8])),
                none.narrow(&a),
                a.iter().copied().filter(|_| false).collect(),
            ];
            for e in &empties {
                prop_assert!(e.0.is_none(), "an empty block set holds no pointer");
                prop_assert!(e.is_empty() && e.iter().len() == 0 && e.bases().next().is_none());
                prop_assert!(*e == none);
                prop_assert_eq!(format!("{e:?}"), "{}");
                prop_assert!(e.le(&a) && (a.le(e) == a.is_empty()));
                prop_assert!(e.join(&a) == a && a.join(e) == a);
            }
            // Nothing that keeps a base can lose the allocation.
            for kept in [a.shift(&delta), a.narrow(&none), a.join(&none), a.widen(&a)] {
                prop_assert_eq!(kept.0.is_none(), a.is_empty());
                prop_assert_eq!(kept.len(), a.len());
            }
        }

        #[test]
        fn lattice_laws_on_generated_blocks(a in blocks(), b in blocks(), c in blocks()) {
            laws::check_join_laws(&a, &b, &c);
            laws::check_widen_narrow_laws(&a, &b);
        }
    }
}
