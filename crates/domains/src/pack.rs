//! Variable packs for packed relational analysis (§4).
//!
//! A pack is a set of variables selected to be related together; the packed
//! relational state maps packs (the abstract locations of the relational
//! instance) to octagon constraints over the pack's members. §4 assumes
//! `⋃Packs = Var` and that every variable also has a singleton pack — the
//! singleton packs are what the projection `π_x` reads (§4.2).

use sga_ir::VarId;
use sga_utils::{new_index, Idx, IndexVec, Rows};
use std::fmt;
use std::rc::Rc;

new_index!(pub struct PackId, "pk");

/// A sorted, deduplicated set of variables related together.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pack(Rc<[VarId]>);

impl Pack {
    /// Builds a pack from members (sorted and deduplicated).
    pub fn new(mut members: Vec<VarId>) -> Pack {
        members.sort_unstable();
        members.dedup();
        Pack(Rc::from(members))
    }

    /// The singleton pack `⟪x⟫`.
    pub fn singleton(x: VarId) -> Pack {
        Pack(Rc::from([x]))
    }

    /// Members in ascending order.
    pub fn members(&self) -> &[VarId] {
        &self.0
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the pack is empty (never true for well-formed pack sets).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, x: VarId) -> bool {
        self.0.binary_search(&x).is_ok()
    }

    /// Index of `x` within the pack — the octagon variable index.
    pub fn index_of(&self, x: VarId) -> Option<usize> {
        self.0.binary_search(&x).ok()
    }
}

impl fmt::Debug for Pack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟪")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "⟫")
    }
}

/// The program's pack set, with the `pack(x)` reverse index from §4.1.
///
/// Both indices are dense tables over the variable numbering: `pack(x)` is
/// row `x` of a [`Rows`] table, ascending, and the singleton of `x` one slot
/// of a `Vec`. A variable no pack mentions has an empty row and no
/// singleton.
#[derive(Clone, Debug, Default)]
pub struct PackSet {
    packs: IndexVec<PackId, Pack>,
    by_var: Rows<PackId>,
    singleton_of: Vec<Option<PackId>>,
}

impl PackSet {
    /// Builds a pack set. Singleton packs for every mentioned variable are
    /// added automatically (required by the projection of §4.2).
    ///
    /// Packs are numbered in the order given, a repeated pack keeping its
    /// first id, then the added singletons by ascending variable.
    pub fn new(packs: impl IntoIterator<Item = Pack>) -> PackSet {
        let given: Vec<Pack> = packs.into_iter().filter(|p| !p.is_empty()).collect();
        // A pack equal to an earlier one is a repeat: equal packs are
        // adjacent once sorted, the earliest first.
        let mut order: Vec<usize> = (0..given.len()).collect();
        order.sort_by(|&a, &b| given[a].cmp(&given[b]).then(a.cmp(&b)));
        let mut repeat = vec![false; given.len()];
        for w in order.windows(2) {
            repeat[w[1]] = given[w[0]] == given[w[1]];
        }
        let vars = given
            .iter()
            .flat_map(|p| p.members())
            .map(|v| v.index() + 1)
            .max()
            .unwrap_or(0);
        let (mut set, mut mentioned) = (PackSet::default(), vec![false; vars]);
        set.singleton_of = vec![None; vars];
        for (pack, repeat) in given.into_iter().zip(repeat) {
            for &v in pack.members() {
                mentioned[v.index()] = true;
            }
            if repeat {
                continue;
            }
            if let [x] = *pack.members() {
                set.singleton_of[x.index()] = Some(PackId::new(set.packs.len()));
            }
            set.packs.push(pack);
        }
        for (v, _) in mentioned.iter().enumerate().filter(|(_, &m)| m) {
            if set.singleton_of[v].is_none() {
                let id = set.packs.push(Pack::singleton(VarId::new(v)));
                set.singleton_of[v] = Some(id);
            }
        }
        let members = set.packs.iter().enumerate().flat_map(|(id, pack)| {
            pack.members()
                .iter()
                .map(move |v| (v.index(), PackId::new(id)))
        });
        set.by_var = Rows::scatter(vars, members);
        set
    }

    /// All packs.
    pub fn iter(&self) -> impl Iterator<Item = (PackId, &Pack)> + '_ {
        self.packs.iter_enumerated()
    }

    /// The pack with id `id`.
    pub fn pack(&self, id: PackId) -> &Pack {
        &self.packs[id]
    }

    /// Number of packs (including singletons).
    pub fn len(&self) -> usize {
        self.packs.len()
    }

    /// Whether there are no packs.
    pub fn is_empty(&self) -> bool {
        self.packs.is_empty()
    }

    /// `pack(x)`: ids of every pack containing `x` (§4.1).
    pub fn packs_of(&self, x: VarId) -> &[PackId] {
        if x.index() < self.by_var.len() {
            self.by_var.row(x.index())
        } else {
            &[]
        }
    }

    /// The singleton pack of `x`, if `x` is packed at all.
    pub fn singleton_id(&self, x: VarId) -> Option<PackId> {
        self.singleton_of.get(x.index()).copied().flatten()
    }

    /// Average pack size — reported in §6.2's discussion (5–7 for the
    /// paper's benchmarks).
    pub fn average_size(&self) -> f64 {
        if self.packs.is_empty() {
            return 0.0;
        }
        let total: usize = self.packs.iter().map(Pack::len).sum();
        total as f64 / self.packs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sga_utils::Idx;

    fn v(i: usize) -> VarId {
        VarId::new(i)
    }

    #[test]
    fn pack_sorts_and_dedups() {
        let p = Pack::new(vec![v(3), v(1), v(3)]);
        assert_eq!(p.members(), &[v(1), v(3)]);
        assert_eq!(p.index_of(v(3)), Some(1));
        assert_eq!(p.index_of(v(2)), None);
    }

    #[test]
    fn packset_adds_singletons() {
        let set = PackSet::new(vec![Pack::new(vec![v(0), v(1)])]);
        // ⟪0,1⟫ plus singletons ⟪0⟫ and ⟪1⟫.
        assert_eq!(set.len(), 3);
        assert!(set.singleton_id(v(0)).is_some());
        assert!(set.singleton_id(v(1)).is_some());
        assert_eq!(set.packs_of(v(0)).len(), 2);
    }

    #[test]
    fn packset_dedups_packs() {
        let set = PackSet::new(vec![
            Pack::new(vec![v(0), v(1)]),
            Pack::new(vec![v(1), v(0)]),
            Pack::singleton(v(0)),
        ]);
        assert_eq!(set.len(), 3, "duplicate packs collapse");
    }

    #[test]
    fn average_size() {
        let set = PackSet::new(vec![Pack::new(vec![v(0), v(1), v(2)])]);
        // sizes: 3, 1, 1, 1 → avg 1.5
        assert!((set.average_size() - 1.5).abs() < 1e-9);
    }
}
