//! Strongly typed indices and index-keyed vectors.
//!
//! Every entity in the IR and in the analysis (procedure, basic block,
//! control point, variable, abstract location, pack, …) is identified by a
//! newtyped `u32`. The [`new_index!`](crate::new_index) macro generates the newtype and its
//! [`Idx`] implementation; [`IndexVec`] is the arena those indices point
//! into.
//!
//! # Examples
//!
//! ```
//! use sga_utils::{new_index, Idx, IndexVec};
//!
//! new_index!(pub struct WidgetId, "w");
//!
//! let mut widgets: IndexVec<WidgetId, String> = IndexVec::new();
//! let a = widgets.push("alpha".to_string());
//! let b = widgets.push("beta".to_string());
//! assert_eq!(widgets[a], "alpha");
//! assert_eq!(b.index(), 1);
//! assert_eq!(format!("{a:?}"), "w0");
//! ```

use std::fmt;
use std::marker::PhantomData;

/// A typed index: a cheap copyable handle convertible to/from `usize`.
pub trait Idx: Copy + Eq + Ord + std::hash::Hash + fmt::Debug + 'static {
    /// Builds the index from a raw position.
    ///
    /// # Panics
    ///
    /// Panics if `i` exceeds `u32::MAX`.
    fn new(i: usize) -> Self;
    /// Returns the raw position.
    fn index(self) -> usize;
}

/// Declares a new index type implementing [`Idx`].
///
/// The second argument is a short prefix used by the `Debug` impl, so that
/// `b3` reads as "block 3" in dumps.
#[macro_export]
macro_rules! new_index {
    ($v:vis struct $name:ident, $prefix:literal) => {
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        $v struct $name(pub u32);

        impl $crate::idx::Idx for $name {
            #[inline]
            fn new(i: usize) -> Self {
                assert!(i <= u32::MAX as usize, "index overflow");
                $name(i as u32)
            }
            #[inline]
            fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl ::std::fmt::Debug for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }
    };
}

/// A vector addressed by a typed index rather than `usize`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct IndexVec<I: Idx, T> {
    raw: Vec<T>,
    _marker: PhantomData<fn(I)>,
}

impl<I: Idx, T> IndexVec<I, T> {
    /// Creates an empty vector.
    pub fn new() -> Self {
        IndexVec {
            raw: Vec::new(),
            _marker: PhantomData,
        }
    }

    /// Creates an empty vector with capacity for `n` elements.
    pub fn with_capacity(n: usize) -> Self {
        IndexVec {
            raw: Vec::with_capacity(n),
            _marker: PhantomData,
        }
    }

    /// Creates a vector of `n` clones of `elem`.
    pub fn from_elem_n(elem: T, n: usize) -> Self
    where
        T: Clone,
    {
        IndexVec {
            raw: vec![elem; n],
            _marker: PhantomData,
        }
    }

    /// Appends an element, returning its index.
    pub fn push(&mut self, value: T) -> I {
        let idx = I::new(self.raw.len());
        self.raw.push(value);
        idx
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// The index the *next* `push` would return.
    pub fn next_index(&self) -> I {
        I::new(self.raw.len())
    }

    /// Borrow by index, `None` if out of range.
    pub fn get(&self, index: I) -> Option<&T> {
        self.raw.get(index.index())
    }

    /// Mutable borrow by index, `None` if out of range.
    pub fn get_mut(&mut self, index: I) -> Option<&mut T> {
        self.raw.get_mut(index.index())
    }

    /// Iterates over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.raw.iter()
    }

    /// Iterates mutably over the elements.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.raw.iter_mut()
    }

    /// Iterates over `(index, &element)` pairs.
    pub fn iter_enumerated(&self) -> impl Iterator<Item = (I, &T)> + '_ {
        self.raw.iter().enumerate().map(|(i, t)| (I::new(i), t))
    }

    /// Iterates over all valid indices.
    pub fn indices(&self) -> impl Iterator<Item = I> + 'static {
        (0..self.raw.len()).map(I::new)
    }

    /// Consumes the arena, returning the underlying `Vec`.
    pub fn into_raw(self) -> Vec<T> {
        self.raw
    }

    /// Borrows the underlying slice.
    pub fn as_raw(&self) -> &[T] {
        &self.raw
    }
}

impl<I: Idx, T> Default for IndexVec<I, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<I: Idx, T: fmt::Debug> fmt::Debug for IndexVec<I, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter_enumerated()).finish()
    }
}

impl<I: Idx, T> std::ops::Index<I> for IndexVec<I, T> {
    type Output = T;
    #[inline]
    fn index(&self, index: I) -> &T {
        &self.raw[index.index()]
    }
}

impl<I: Idx, T> std::ops::IndexMut<I> for IndexVec<I, T> {
    #[inline]
    fn index_mut(&mut self, index: I) -> &mut T {
        &mut self.raw[index.index()]
    }
}

impl<I: Idx, T> FromIterator<T> for IndexVec<I, T> {
    fn from_iter<It: IntoIterator<Item = T>>(iter: It) -> Self {
        IndexVec {
            raw: Vec::from_iter(iter),
            _marker: PhantomData,
        }
    }
}

impl<I: Idx, T> Extend<T> for IndexVec<I, T> {
    fn extend<It: IntoIterator<Item = T>>(&mut self, iter: It) {
        self.raw.extend(iter);
    }
}

impl<I: Idx, T> IntoIterator for IndexVec<I, T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;
    fn into_iter(self) -> Self::IntoIter {
        self.raw.into_iter()
    }
}

impl<'a, I: Idx, T> IntoIterator for &'a IndexVec<I, T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.raw.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    new_index!(struct TestId, "t");

    #[test]
    fn push_and_index() {
        let mut v: IndexVec<TestId, i32> = IndexVec::new();
        let a = v.push(10);
        let b = v.push(20);
        assert_eq!(v[a], 10);
        assert_eq!(v[b], 20);
        assert_eq!(v.len(), 2);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
    }

    #[test]
    fn debug_uses_prefix() {
        let id = TestId::new(7);
        assert_eq!(format!("{id:?}"), "t7");
        assert_eq!(format!("{id}"), "t7");
    }

    #[test]
    fn iter_enumerated_yields_indices_in_order() {
        let v: IndexVec<TestId, char> = "abc".chars().collect();
        let pairs: Vec<_> = v.iter_enumerated().map(|(i, c)| (i.index(), *c)).collect();
        assert_eq!(pairs, vec![(0, 'a'), (1, 'b'), (2, 'c')]);
    }

    #[test]
    fn next_index_tracks_len() {
        let mut v: IndexVec<TestId, ()> = IndexVec::new();
        assert_eq!(v.next_index(), TestId::new(0));
        v.push(());
        assert_eq!(v.next_index(), TestId::new(1));
    }

    #[test]
    fn from_elem_n_clones() {
        let v: IndexVec<TestId, u8> = IndexVec::from_elem_n(9, 4);
        assert_eq!(v.as_raw(), &[9, 9, 9, 9]);
    }

    #[test]
    fn get_out_of_range_is_none() {
        let v: IndexVec<TestId, u8> = IndexVec::new();
        assert!(v.get(TestId::new(0)).is_none());
    }
}
