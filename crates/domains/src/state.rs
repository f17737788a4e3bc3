//! Abstract states `Ŝ = L̂ → V̂` (§2.3), backed by the persistent map.
//!
//! Unbound locations denote ⊥ — a state is the *finite support* of the
//! pointwise-lifted function, which is exactly what sparse analysis exploits:
//! sparse states bind only the locations in `D̂(c)`.

use crate::lattice::{Lattice, Thresholds};
use crate::locs::{AbsLoc, LocSet};
use crate::value::Value;
use sga_utils::PMap;
use std::fmt;

/// An abstract memory state.
#[derive(Clone, PartialEq, Default)]
pub struct State {
    map: PMap<AbsLoc, Value>,
}

impl State {
    /// The empty (all-⊥) state.
    pub fn new() -> State {
        State { map: PMap::new() }
    }

    /// Number of bound locations.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no location is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `l`, returning ⊥ for unbound locations.
    pub fn get(&self, l: &AbsLoc) -> Value {
        self.map.get(l).cloned().unwrap_or_else(Value::bot)
    }

    /// Borrowing lookup (`None` = ⊥).
    pub fn get_ref(&self, l: &AbsLoc) -> Option<&Value> {
        self.map.get(l)
    }

    /// Strong update: `s[l ↦ v]`.
    #[must_use = "State::set returns the updated state"]
    pub fn set(&self, l: AbsLoc, v: Value) -> State {
        State {
            map: self.map.insert(l, v),
        }
    }

    /// Weak update: `s[l ↦ s(l) ⊔ v]` (§2.1's `f[{...} ⤇ b]`).
    #[must_use = "State::weak_set returns the updated state"]
    pub fn weak_set(&self, l: AbsLoc, v: &Value) -> State {
        let joined = match self.map.get(&l) {
            Some(old) => old.join(v),
            None => v.clone(),
        };
        State {
            map: self.map.insert(l, joined),
        }
    }

    /// Weak update over a whole target set — the store transfer function
    /// `s[ŝ(x).P̂ ⤇ Ê(e)(ŝ)]`.
    #[must_use = "State::weak_set_all returns the updated state"]
    pub fn weak_set_all(&self, targets: &LocSet, v: &Value) -> State {
        let mut s = self.clone();
        for &l in targets {
            s = s.weak_set(l, v);
        }
        s
    }

    /// Restriction `s|locs`: keeps only the given locations.
    #[must_use = "State::restrict returns the restricted state"]
    pub fn restrict(&self, locs: &LocSet) -> State {
        // Iterate the smaller side.
        if locs.len() < self.map.len() {
            let mut out = State::new();
            for l in locs {
                if let Some(v) = self.map.get(l) {
                    out = out.set(*l, v.clone());
                }
            }
            out
        } else {
            State {
                map: self.map.filter(|l, _| locs.contains(l)),
            }
        }
    }

    /// Iterates over bound `(location, value)` pairs in location order.
    pub fn iter(&self) -> impl Iterator<Item = (&AbsLoc, &Value)> + '_ {
        self.map.iter()
    }

    /// Bound locations.
    pub fn locs(&self) -> impl Iterator<Item = &AbsLoc> + '_ {
        self.map.keys()
    }

    /// O(1) shared-root equality shortcut.
    pub fn ptr_eq(&self, other: &State) -> bool {
        self.map.ptr_eq(&other.map)
    }

    /// Wraps a raw binding map (used by the sparse engine, whose generic
    /// states are `PMap`s).
    pub fn from_pmap(map: PMap<AbsLoc, Value>) -> State {
        State { map }
    }

    /// Borrows the underlying binding map.
    pub fn as_pmap(&self) -> &PMap<AbsLoc, Value> {
        &self.map
    }
}

impl Lattice for State {
    fn bottom() -> Self {
        State::new()
    }

    fn is_bottom(&self) -> bool {
        self.map.is_empty()
    }

    fn le(&self, other: &Self) -> bool {
        if self.ptr_eq(other) {
            return true;
        }
        self.map.iter().all(|(l, v)| match other.map.get(l) {
            Some(ov) => v.le(ov),
            None => v.is_bottom(),
        })
    }

    fn join(&self, other: &Self) -> Self {
        State {
            map: self.map.union_with(&other.map, |_, a, b| a.join(b)),
        }
    }

    fn widen(&self, other: &Self) -> Self {
        State {
            map: self.map.union_with(&other.map, |_, a, b| a.widen(b)),
        }
    }

    fn widen_with(&self, other: &Self, thresholds: &Thresholds) -> Self {
        State {
            map: self
                .map
                .union_with(&other.map, |_, a, b| a.widen_with(b, thresholds)),
        }
    }

    fn narrow(&self, other: &Self) -> Self {
        // Pointwise narrow on bindings of `self`; bindings missing from
        // `other` narrow towards ⊥ only via their own components.
        let mut out = self.map.clone();
        for (l, v) in self.map.iter() {
            if let Some(ov) = other.map.get(l) {
                out = out.insert(*l, v.narrow(ov));
            }
        }
        State { map: out }
    }
}

impl fmt::Debug for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.map.iter()).finish()
    }
}

impl FromIterator<(AbsLoc, Value)> for State {
    fn from_iter<I: IntoIterator<Item = (AbsLoc, Value)>>(iter: I) -> Self {
        State {
            map: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use crate::lattice::laws;
    use sga_ir::VarId;
    use sga_utils::Idx;

    fn l(i: usize) -> AbsLoc {
        AbsLoc::Var(VarId::new(i))
    }

    #[test]
    fn unbound_is_bottom() {
        let s = State::new();
        assert!(s.get(&l(0)).is_bottom());
        assert!(s.get_ref(&l(0)).is_none());
    }

    #[test]
    fn strong_update_replaces() {
        let s = State::new()
            .set(l(0), Value::constant(1))
            .set(l(0), Value::constant(2));
        assert_eq!(s.get(&l(0)).itv, Interval::constant(2));
    }

    #[test]
    fn weak_update_joins() {
        let s = State::new()
            .set(l(0), Value::constant(1))
            .weak_set(l(0), &Value::constant(5));
        assert_eq!(s.get(&l(0)).itv, Interval::range(1, 5));
    }

    #[test]
    fn weak_set_all_hits_every_target() {
        let targets: LocSet = [l(1), l(2)].into_iter().collect();
        let s = State::new()
            .set(l(1), Value::constant(0))
            .weak_set_all(&targets, &Value::constant(9));
        assert_eq!(s.get(&l(1)).itv, Interval::range(0, 9));
        assert_eq!(s.get(&l(2)).itv, Interval::constant(9));
    }

    #[test]
    fn restrict_keeps_only_given() {
        let s = State::new()
            .set(l(0), Value::constant(1))
            .set(l(1), Value::constant(2));
        let keep: LocSet = [l(1), l(7)].into_iter().collect();
        let r = s.restrict(&keep);
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(&l(1)).itv, Interval::constant(2));
    }

    #[test]
    fn join_is_pointwise() {
        let a = State::new().set(l(0), Value::constant(1));
        let b = State::new()
            .set(l(0), Value::constant(3))
            .set(l(1), Value::constant(7));
        let j = a.join(&b);
        assert_eq!(j.get(&l(0)).itv, Interval::range(1, 3));
        assert_eq!(j.get(&l(1)).itv, Interval::constant(7));
    }

    #[test]
    fn le_treats_missing_as_bottom() {
        let a = State::new().set(l(0), Value::constant(1));
        let b = State::new().set(l(0), Value::of_itv(Interval::range(0, 2)));
        assert!(a.le(&b));
        assert!(!b.le(&a));
        assert!(State::new().le(&a));
        let with_bot = State::new().set(l(9), Value::bot());
        assert!(
            with_bot.le(&State::new()),
            "explicit ⊥ binding ⊑ empty state"
        );
    }

    #[test]
    fn lattice_laws_on_samples() {
        let states = [
            State::new(),
            State::new().set(l(0), Value::constant(1)),
            State::new()
                .set(l(0), Value::of_itv(Interval::range(0, 5)))
                .set(l(1), Value::constant(2)),
            State::new().set(l(2), Value::unknown_int()),
        ];
        for a in &states {
            for b in &states {
                for c in &states {
                    laws::check_join_laws(a, b, c);
                    laws::check_widen_narrow_laws(a, b);
                }
            }
        }
    }

    #[test]
    fn widen_escapes_growing_interval() {
        let a = State::new().set(l(0), Value::of_itv(Interval::range(0, 1)));
        let b = State::new().set(l(0), Value::of_itv(Interval::range(0, 2)));
        let w = a.widen(&b);
        assert_eq!(w.get(&l(0)).itv.hi(), Some(crate::interval::Bound::PosInf));
    }
}
