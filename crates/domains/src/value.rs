//! The abstract value `V̂ = Ẑ × P̂ × ArrayBlk × 2^Proc` (§3.1 + §6.1).
//!
//! A value carries, simultaneously, everything a C scalar might be: an
//! integer abstraction (interval), a points-to set, an array block (base,
//! offset, size tuples), and a set of function-pointer targets. Most values
//! populate only one component; the product keeps the transfer functions
//! uniform. An empty component is no pointer ([`LocSet`], [`ArrayBlk`]), so
//! a scalar value is built, cloned, joined and dropped without touching the
//! heap.

use crate::array::ArrayBlk;
use crate::interval::Interval;
use crate::lattice::{Lattice, Thresholds};
use crate::locs::LocSet;
use std::fmt;

/// An abstract value.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Value {
    /// Numeric component `Ẑ`.
    pub itv: Interval,
    /// Points-to component `P̂` (non-array pointers).
    pub ptr: LocSet,
    /// Array-pointer component.
    pub arr: ArrayBlk,
    /// Function-pointer targets.
    pub procs: LocSet,
}

impl Value {
    /// The all-bottom value (no information; unreachable / never assigned).
    pub const fn bot() -> Value {
        Value {
            itv: Interval::Bot,
            ptr: LocSet::empty(),
            arr: ArrayBlk::empty(),
            procs: LocSet::empty(),
        }
    }

    /// ⊤ for scalars read from unknown sources: any integer, no pointers.
    /// (Unknown *pointers* are modeled by the frontend's stub generator.)
    pub fn unknown_int() -> Value {
        Value {
            itv: Interval::top(),
            ..Value::bot()
        }
    }

    /// A pure interval value.
    pub fn of_itv(itv: Interval) -> Value {
        Value {
            itv,
            ..Value::bot()
        }
    }

    /// A pure points-to value.
    pub fn of_ptr(ptr: LocSet) -> Value {
        Value {
            ptr,
            ..Value::bot()
        }
    }

    /// A pure array-block value.
    pub fn of_arr(arr: ArrayBlk) -> Value {
        Value {
            arr,
            ..Value::bot()
        }
    }

    /// A pure function-pointer value.
    pub fn of_procs(procs: LocSet) -> Value {
        Value {
            procs,
            ..Value::bot()
        }
    }

    /// A constant integer.
    pub fn constant(n: i64) -> Value {
        Value::of_itv(Interval::constant(n))
    }

    /// Every location a dereference of this value may read or write:
    /// the points-to set plus the bases of the array component.
    pub fn deref_targets(&self) -> LocSet {
        if self.arr.is_empty() {
            return self.ptr.clone();
        }
        let arr_bases: LocSet = self.arr.bases().collect();
        self.ptr.union(&arr_bases)
    }

    /// Replaces the numeric component.
    #[must_use]
    pub fn with_itv(&self, itv: Interval) -> Value {
        Value {
            itv,
            ptr: self.ptr.clone(),
            arr: self.arr.clone(),
            procs: self.procs.clone(),
        }
    }
}

impl Lattice for Value {
    fn bottom() -> Self {
        Value::bot()
    }

    fn is_bottom(&self) -> bool {
        self.itv.is_bottom() && self.ptr.is_empty() && self.arr.is_empty() && self.procs.is_empty()
    }

    fn le(&self, other: &Self) -> bool {
        self.itv.le(&other.itv)
            && self.ptr.le(&other.ptr)
            && self.arr.le(&other.arr)
            && self.procs.le(&other.procs)
    }

    fn join(&self, other: &Self) -> Self {
        Value {
            itv: self.itv.join(&other.itv),
            ptr: self.ptr.join(&other.ptr),
            arr: self.arr.join(&other.arr),
            procs: self.procs.join(&other.procs),
        }
    }

    fn widen(&self, other: &Self) -> Self {
        Value {
            itv: self.itv.widen(&other.itv),
            ptr: self.ptr.join(&other.ptr),
            arr: self.arr.widen(&other.arr),
            procs: self.procs.join(&other.procs),
        }
    }

    fn widen_with(&self, other: &Self, thresholds: &Thresholds) -> Self {
        Value {
            itv: self.itv.widen_with(&other.itv, thresholds),
            ptr: self.ptr.join(&other.ptr),
            arr: self.arr.widen_with(&other.arr, thresholds),
            procs: self.procs.join(&other.procs),
        }
    }

    fn narrow(&self, other: &Self) -> Self {
        Value {
            itv: self.itv.narrow(&other.itv),
            ptr: self.ptr.clone(),
            arr: self.arr.narrow(&other.arr),
            procs: self.procs.clone(),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if !self.itv.is_bottom() {
            parts.push(format!("{}", self.itv));
        }
        if !self.ptr.is_empty() {
            parts.push(format!("ptr{:?}", self.ptr));
        }
        if !self.arr.is_empty() {
            parts.push(format!("arr{:?}", self.arr));
        }
        if !self.procs.is_empty() {
            parts.push(format!("fns{:?}", self.procs));
        }
        if parts.is_empty() {
            write!(f, "⊥")
        } else {
            write!(f, "{}", parts.join(" × "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::laws;
    use crate::locs::AbsLoc;
    use sga_ir::{Cp, NodeId, ProcId, VarId};
    use sga_utils::Idx;

    fn vloc(i: usize) -> AbsLoc {
        AbsLoc::Var(VarId::new(i))
    }

    fn samples() -> Vec<Value> {
        let site = crate::locs::AllocSite(Cp::new(ProcId::new(0), NodeId::new(3)));
        vec![
            Value::bot(),
            Value::constant(5),
            Value::of_itv(Interval::range(0, 9)),
            Value::of_ptr(LocSet::singleton(vloc(1))),
            Value::of_ptr([vloc(1), vloc(2)].into_iter().collect()),
            Value::of_arr(ArrayBlk::alloc(AbsLoc::Alloc(site), Interval::constant(8))),
            Value::unknown_int(),
        ]
    }

    #[test]
    fn lattice_laws_on_samples() {
        let vs = samples();
        for a in &vs {
            for b in &vs {
                for c in &vs {
                    laws::check_join_laws(a, b, c);
                    laws::check_widen_narrow_laws(a, b);
                }
            }
        }
    }

    #[test]
    fn empty_components_fill_the_pointer_niche() {
        use std::mem::size_of;
        assert_eq!(size_of::<LocSet>(), size_of::<&[AbsLoc]>());
        assert_eq!(size_of::<ArrayBlk>(), size_of::<&[AbsLoc]>());
        assert_eq!(
            size_of::<Value>(),
            size_of::<Interval>() + 3 * size_of::<&[AbsLoc]>()
        );
    }

    #[test]
    fn deref_targets_include_array_bases() {
        let site = crate::locs::AllocSite(Cp::new(ProcId::new(0), NodeId::new(3)));
        let v = Value {
            ptr: LocSet::singleton(vloc(1)),
            arr: ArrayBlk::alloc(AbsLoc::Alloc(site), Interval::constant(8)),
            ..Value::bot()
        };
        let targets = v.deref_targets();
        assert!(targets.contains(&vloc(1)));
        assert!(targets.contains(&AbsLoc::Alloc(site)));
        assert_eq!(targets.len(), 2);
    }

    #[test]
    fn join_is_componentwise() {
        let a = Value::constant(1);
        let b = Value::of_ptr(LocSet::singleton(vloc(1)));
        let j = a.join(&b);
        assert_eq!(j.itv, Interval::constant(1));
        assert!(j.ptr.contains(&vloc(1)));
    }

    #[test]
    fn is_bottom_checks_all_components() {
        assert!(Value::bot().is_bottom());
        assert!(!Value::constant(0).is_bottom());
        assert!(!Value::of_ptr(LocSet::singleton(vloc(0))).is_bottom());
    }
}
