//! Safe approximations `D̂(c)` / `Û(c)` (§3.2, Definition 5) and the
//! per-procedure access summaries used by the interprocedural scheme of §5.
//!
//! Two layers of sets per control point:
//!
//! * **real** defs/uses — what the command's transfer function itself
//!   defines and uses, derived from the semantic definitions of §3.2 with
//!   the pre-analysis `T̂` supplying points-to facts. Weak-update targets are
//!   included in the use set (the spurious-definition condition (2) of
//!   Definition 5); strong-update targets are not (Example 4's discussion).
//! * **full** defs/uses — the real sets extended with *relay* roles: a call
//!   is treated "as a definition (resp. use) of all abstract locations
//!   defined (resp. used) by the callee", and a procedure entry/exit as
//!   relays of the locations flowing in/out (§5). The bypass optimization
//!   later contracts chains through pure relays, using the real sets to
//!   decide what is contractible.
//!
//! Every set is a row over [`Program::point_numbering`], written once, in
//! two faces: ascending [`AbsLoc`]s for the semantics and ascending
//! location ids ([`DefUse::locs`]) for dependency generation.

use crate::preanalysis::PreAnalysis;
use crate::semantics::{lval_targets, lval_used, used_locs};
use sga_domains::{AbsLoc, State};
use sga_ir::{Cmd, Cp, Expr, PointNumbering, ProcId, Program, VarKind};
use sga_utils::{FxHashMap, Idx, IndexVec, Rows};

/// Dense interning of abstract locations (for bitsets, BDDs, and the
/// dependency generator).
#[derive(Debug, Default)]
pub struct LocTable {
    locs: Vec<AbsLoc>,
    ids: FxHashMap<AbsLoc, u32>,
}

impl LocTable {
    /// Interns a location.
    pub fn intern(&mut self, l: AbsLoc) -> u32 {
        if let Some(&id) = self.ids.get(&l) {
            return id;
        }
        let id = self.locs.len() as u32;
        self.locs.push(l);
        self.ids.insert(l, id);
        id
    }

    /// The location for an id.
    pub fn loc(&self, id: u32) -> AbsLoc {
        self.locs[id as usize]
    }

    /// Id of an already-interned location.
    pub fn id(&self, l: &AbsLoc) -> Option<u32> {
        self.ids.get(l).copied()
    }

    /// Number of interned locations — Table 1's `AbsLocs` column.
    pub fn len(&self) -> usize {
        self.locs.len()
    }

    /// Whether no location was interned.
    pub fn is_empty(&self) -> bool {
        self.locs.is_empty()
    }
}

/// The complete def/use computation result.
#[derive(Debug)]
pub struct DefUse {
    /// Exported (caller-visible) defs of each procedure, transitively.
    pub summary_defs: IndexVec<ProcId, Vec<AbsLoc>>,
    /// Exported uses of each procedure, transitively.
    pub summary_uses: IndexVec<ProcId, Vec<AbsLoc>>,
    /// All locations seen, densely numbered.
    pub locs: LocTable,
    /// The program's dense point numbering, which every row below indexes.
    num: PointNumbering,
    /// The points that have sets — every point of a non-external
    /// procedure — in numbering order.
    points: Vec<Cp>,
    /// Per point, `D̂`, `Û`, and the real defs and uses, ascending.
    defs: Rows<AbsLoc>,
    uses: Rows<AbsLoc>,
    real_defs: Rows<AbsLoc>,
    real_uses: Rows<AbsLoc>,
    /// Per point, `D̂`, `Û`, and the real defs and uses together, as
    /// ascending location ids: what dependency generation reads.
    def_ids: Rows<u32>,
    use_ids: Rows<u32>,
    real_ids: Rows<u32>,
}

/// Sizes of the def/use tables, summed over the program: the work
/// dependency generation is handed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DefUseCounts {
    /// `Σ |D̂(c)|`.
    pub defs: usize,
    /// `Σ |Û(c)|`.
    pub uses: usize,
    /// `Σ` over procedures of the exported defs.
    pub summary_defs: usize,
    /// `Σ` over procedures of the exported uses.
    pub summary_uses: usize,
    /// `Σ |(D̂(c) ∪ Û(c)) − (D(c) ∪ U(c))|`: the locations a call, entry
    /// or exit carries only as a relay.
    pub relayed: usize,
}

impl DefUse {
    /// The points that have sets (every point of a non-external
    /// procedure), in numbering order.
    pub fn points(&self) -> &[Cp] {
        &self.points
    }

    /// `D̂(c)`.
    pub fn defs(&self, cp: Cp) -> &[AbsLoc] {
        self.defs.row(self.num.index(cp))
    }

    /// `Û(c)`.
    pub fn uses(&self, cp: Cp) -> &[AbsLoc] {
        self.uses.row(self.num.index(cp))
    }

    /// The semantic (command-level) definitions of `cp`.
    pub fn real_defs(&self, cp: Cp) -> &[AbsLoc] {
        self.real_defs.row(self.num.index(cp))
    }

    /// The semantic uses of `cp`.
    pub fn real_uses(&self, cp: Cp) -> &[AbsLoc] {
        self.real_uses.row(self.num.index(cp))
    }

    /// `D̂(c)` as ascending location ids ([`DefUse::locs`]).
    pub fn def_ids(&self, cp: Cp) -> &[u32] {
        self.def_ids.row(self.num.index(cp))
    }

    /// `Û(c)` as ascending location ids.
    pub fn use_ids(&self, cp: Cp) -> &[u32] {
        self.use_ids.row(self.num.index(cp))
    }

    /// The locations `cp` really (not as a relay) defines or uses, as
    /// ascending ids — the bypass optimization's contractibility test.
    pub fn real_ids(&self, cp: Cp) -> &[u32] {
        self.real_ids.row(self.num.index(cp))
    }

    /// [`crate::sparse::SparseSpec::forwards`] for the instances whose
    /// transfer reads and writes within the real sets (the pre-analysis they
    /// come from over-approximates every state the fixpoint passes through):
    /// location `id` is a relayed member of `D̂(cp)`.
    pub(crate) fn forwards(&self, cp: Cp, id: u32) -> bool {
        let i = self.num.index(cp);
        let has = |ids: &[u32]| ids.binary_search(&id).is_ok();
        has(self.def_ids.row(i)) && !has(self.real_ids.row(i))
    }

    /// Average `|D̂(c)|` over real command points — Table 2's `D̂(c)` column.
    pub fn avg_def_size(&self) -> f64 {
        avg(self.defs.items().len(), self.points.len())
    }

    /// Average `|Û(c)|` — Table 2's `Û(c)` column.
    pub fn avg_use_size(&self) -> f64 {
        avg(self.uses.items().len(), self.points.len())
    }

    /// The tables' sizes (see [`DefUseCounts`]).
    pub fn counts(&self) -> DefUseCounts {
        let sum = |rows: &IndexVec<ProcId, Vec<AbsLoc>>| rows.iter().map(Vec::len).sum();
        // The real ids are a subset of `D̂ ∪ Û` (`finish` takes them from the
        // full sets), so a point relays `|D̂ ∪ Û| − |real|` locations: none
        // when `|real| = |D̂| + |Û|`, as at most non-call points.
        let relayed = self.points.iter().map(|&cp| {
            let (defs, uses, real) = (self.def_ids(cp), self.use_ids(cp), self.real_ids(cp));
            if real.len() == defs.len() + uses.len() {
                return 0;
            }
            let (mut i, mut j, mut union) = (0, 0, 0);
            while i < defs.len() && j < uses.len() {
                let (a, b) = (defs[i], uses[j]);
                i += usize::from(a <= b);
                j += usize::from(b <= a);
                union += 1;
            }
            union + (defs.len() - i) + (uses.len() - j) - real.len()
        });
        DefUseCounts {
            defs: self.defs.items().len(),
            uses: self.uses.items().len(),
            summary_defs: sum(&self.summary_defs),
            summary_uses: sum(&self.summary_uses),
            relayed: relayed.sum(),
        }
    }
}

fn avg(total: usize, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

/// Whether a location is invisible outside its owning frame (never exported
/// in summaries; parameter and return flow is linked explicitly instead).
pub fn is_frame_private(program: &Program, l: &AbsLoc) -> bool {
    match l {
        AbsLoc::Var(v) | AbsLoc::Field(v, _) => {
            let info = &program.vars[*v];
            info.kind != VarKind::Global && !info.address_taken
        }
        _ => false,
    }
}

/// Computes real and full def/use sets plus procedure summaries.
pub fn compute(program: &Program, pre: &PreAnalysis) -> DefUse {
    compute_with_state(program, pre, &pre.state)
}

/// Like [`compute`], but deriving D̂/Û from an explicitly supplied
/// pre-analysis state — used by the semi-sparse instance, which coarsens the
/// points-to information of non-top-level variables (§3.2).
///
/// Three passes: the real sets of every procedure, the access summaries
/// bottom-up over call-graph SCCs, then the full sets with relay roles,
/// interned in procedure order.
pub fn compute_with_state(program: &Program, pre: &PreAnalysis, t: &State) -> DefUse {
    let num = program.point_numbering();
    // Pass 1: real sets per node.
    let mut points: Vec<Cp> = Vec::new();
    let (mut real_defs, mut real_uses) = (Rows::default(), Rows::default());
    let (mut d, mut u) = (Vec::new(), Vec::new());
    for (pid, proc) in program.procs.iter_enumerated() {
        if proc.is_external {
            continue;
        }
        for (nid, node) in proc.nodes.iter_enumerated() {
            let cp = Cp::new(pid, nid);
            real_def_use(program, pre, t, cp, &node.cmd, &mut d, &mut u);
            for (rows, set) in [(&mut real_defs, &d), (&mut real_uses, &u)] {
                rows.pad_to(num.index(cp));
                rows.push_row(set.iter().copied());
            }
            points.push(cp);
        }
    }
    real_defs.pad_to(num.len());
    real_uses.pad_to(num.len());
    let mut du = DefUse {
        summary_defs: IndexVec::from_elem_n(Vec::new(), program.procs.len()),
        summary_uses: IndexVec::from_elem_n(Vec::new(), program.procs.len()),
        locs: LocTable::default(),
        num,
        points,
        defs: Rows::default(),
        uses: Rows::default(),
        real_defs,
        real_uses,
        def_ids: Rows::default(),
        use_ids: Rows::default(),
        real_ids: Rows::default(),
    };

    // Pass 2: transitive access summaries, bottom-up over call-graph SCCs.
    for scc in pre.callgraph.bottom_up_sccs() {
        let (exported_defs, exported_uses) = summarize_scc(program, pre, &du, scc);
        for &praw in scc {
            let pid = ProcId::new(praw);
            du.summary_defs[pid] = exported_defs.clone();
            du.summary_uses[pid] = exported_uses.clone();
        }
    }

    // Pass 3: full sets with relay roles, interned as they are written.
    finish(program, pre, du)
}

/// Pass 2 for one call-graph SCC: the exported (caller-visible) accesses of
/// its procedures, given the summaries of everything below it.
fn summarize_scc(
    program: &Program,
    pre: &PreAnalysis,
    du: &DefUse,
    scc: &[usize],
) -> (Vec<AbsLoc>, Vec<AbsLoc>) {
    let (mut defs, mut uses): (Vec<AbsLoc>, Vec<AbsLoc>) = (Vec::new(), Vec::new());
    let mut callees: Vec<ProcId> = Vec::new();
    for &praw in scc {
        let pid = ProcId::new(praw);
        let proc = &program.procs[pid];
        if proc.is_external {
            continue;
        }
        for nid in proc.nodes.indices() {
            let cp = Cp::new(pid, nid);
            defs.extend_from_slice(du.real_defs(cp));
            uses.extend_from_slice(du.real_uses(cp));
            // Same-SCC summaries converge to the union.
            let below = pre.call_targets(cp).iter();
            callees.extend(below.filter(|t| !scc.contains(&t.index())));
        }
    }
    callees.sort_unstable();
    callees.dedup();
    for &t_pid in &callees {
        defs.extend_from_slice(&du.summary_defs[t_pid]);
        uses.extend_from_slice(&du.summary_uses[t_pid]);
    }
    let exported = |mut set: Vec<AbsLoc>| {
        set.retain(|l| !is_frame_private(program, l));
        set.sort_unstable();
        set.dedup();
        set
    };
    (exported(defs), exported(uses))
}

/// Pass 3 for one relay point — a call, or its procedure's entry or exit:
/// the full `D̂`/`Û` sets (the real sets extended with relay roles) into
/// `defs`/`uses`, ascending, given everyone's summaries.
fn relay_sets(
    program: &Program,
    pre: &PreAnalysis,
    du: &DefUse,
    cp: Cp,
    defs: &mut Vec<AbsLoc>,
    uses: &mut Vec<AbsLoc>,
) {
    let proc = &program.procs[cp.proc];
    defs.clear();
    uses.clear();
    defs.extend_from_slice(du.real_defs(cp));
    uses.extend_from_slice(du.real_uses(cp));
    if let Cmd::Call { .. } = program.cmd(cp) {
        for &t_pid in pre.call_targets(cp) {
            let callee = &program.procs[t_pid];
            if callee.is_external {
                continue;
            }
            // The call receives callee-defined values back and relays them
            // on; spurious (may-)defs go into Û per Definition 5(2).
            // Callee-*used* locations are NOT relayed through the call: the
            // dependency generator routes their reaching definitions
            // straight to the callee entry (pre-call values must not mix
            // with returned ones), and keeps them in Û only so the
            // reaching-def pass visits this node.
            defs.extend_from_slice(&du.summary_defs[t_pid]);
            uses.extend_from_slice(&du.summary_defs[t_pid]);
            uses.extend_from_slice(&du.summary_uses[t_pid]);
            defs.extend(callee.params.iter().map(|&p| AbsLoc::Var(p)));
            uses.push(AbsLoc::Var(callee.ret_var));
        }
    }
    // Locations flowing through the entry: everything the body
    // (transitively) uses, plus the parameters; through the exit:
    // everything it defines, plus the return variable.
    if cp.node == proc.entry {
        let params = proc.params.iter().map(|&p| AbsLoc::Var(p));
        let flow_in = du.summary_uses[cp.proc].iter().copied().chain(params);
        for set in [&mut *defs, &mut *uses] {
            set.extend(flow_in.clone());
        }
    }
    if cp.node == proc.exit {
        let ret = std::iter::once(AbsLoc::Var(proc.ret_var));
        let flow_out = du.summary_defs[cp.proc].iter().copied().chain(ret);
        for set in [&mut *defs, &mut *uses] {
            set.extend(flow_out.clone());
        }
    }
    for set in [defs, uses] {
        set.sort_unstable();
        set.dedup();
    }
}

/// Pass 3: writes every point's full sets, both faces, interning
/// locations in procedure order and, per point, `D̂` then `Û`, each
/// ascending (a point without a relay role has its real sets as full sets).
fn finish(program: &Program, pre: &PreAnalysis, du: DefUse) -> DefUse {
    let mut locs = LocTable::default();
    let mut loc_rows: [Rows<AbsLoc>; 2] = Default::default();
    let mut id_rows: [Rows<u32>; 3] = Default::default();
    let (mut defs, mut uses) = (Vec::new(), Vec::new());
    let (mut d, mut u, mut real) = (Vec::new(), Vec::new(), Vec::new());
    for &cp in &du.points {
        let (real_defs, real_uses) = (du.real_defs(cp), du.real_uses(cp));
        let proc = &program.procs[cp.proc];
        let relays = matches!(program.cmd(cp), Cmd::Call { .. })
            || cp.node == proc.entry
            || cp.node == proc.exit;
        let (defs, uses) = if relays {
            relay_sets(program, pre, &du, cp, &mut defs, &mut uses);
            (&defs[..], &uses[..])
        } else {
            (real_defs, real_uses)
        };
        d.clear();
        d.extend(defs.iter().map(|l| locs.intern(*l)));
        u.clear();
        u.extend(uses.iter().map(|l| locs.intern(*l)));
        real.clear();
        real.extend(ids_of_subset(defs, &d, real_defs));
        real.extend(ids_of_subset(uses, &u, real_uses));
        let i = du.num.index(cp);
        for (rows, set) in loc_rows.iter_mut().zip([defs, uses]) {
            rows.pad_to(i);
            rows.push_row(set.iter().copied());
        }
        for (rows, ids) in id_rows.iter_mut().zip([&mut d, &mut u, &mut real]) {
            ids.sort_unstable();
            ids.dedup();
            rows.pad_to(i);
            rows.push_row(ids.iter().copied());
        }
    }
    let n = du.num.len();
    let [defs, uses] = loc_rows.map(|mut rows| {
        rows.pad_to(n);
        rows
    });
    let [def_ids, use_ids, real_ids] = id_rows.map(|mut rows| {
        rows.pad_to(n);
        rows
    });
    DefUse {
        locs,
        defs,
        uses,
        def_ids,
        use_ids,
        real_ids,
        ..du
    }
}

/// The ids of `sub`, a subset of `all` (both ascending), where `ids[i]` is
/// `all[i]`'s.
fn ids_of_subset<'a>(
    all: &'a [AbsLoc],
    ids: &'a [u32],
    sub: &'a [AbsLoc],
) -> impl Iterator<Item = u32> + 'a {
    let mut at = 0;
    sub.iter().map(move |l| {
        at += all[at..].iter().position(|a| a == l).expect("a subset");
        ids[at]
    })
}

/// The real (semantic) def/use sets of the command at `cp`, ascending,
/// into `defs`/`uses`.
fn real_def_use(
    program: &Program,
    pre: &PreAnalysis,
    t: &State,
    cp: Cp,
    cmd: &Cmd,
    defs: &mut Vec<AbsLoc>,
    uses: &mut Vec<AbsLoc>,
) {
    defs.clear();
    uses.clear();
    let assign_sets = |lv: &sga_ir::LVal, defs: &mut Vec<AbsLoc>, uses: &mut Vec<AbsLoc>| {
        let (targets, strong) = lval_targets(program, lv, t);
        defs.extend(targets.iter().copied());
        lval_used(lv, uses);
        if !strong {
            // Weak updates read their targets (Example 1's discussion) and,
            // equally, spurious defs must be uses (Definition 5(2)).
            uses.extend(targets.iter().copied());
        }
    };
    match cmd {
        Cmd::Skip => {}
        Cmd::Assign(lv, e) => {
            used_locs(program, e, t, uses);
            assign_sets(lv, defs, uses);
        }
        Cmd::Alloc(lv, size) => {
            used_locs(program, size, t, uses);
            assign_sets(lv, defs, uses);
        }
        Cmd::Assume(cond) => {
            used_locs(program, &cond.lhs, t, uses);
            used_locs(program, &cond.rhs, t, uses);
            for side in [&cond.lhs, &cond.rhs] {
                match side {
                    Expr::Var(x) => defs.push(AbsLoc::Var(*x)),
                    Expr::Field(x, f) => defs.push(AbsLoc::Field(*x, *f)),
                    _ => {}
                }
            }
            // Refinement meets with the current value: defs are also uses.
            uses.extend(defs.iter().copied());
        }
        Cmd::Return(e) => {
            if let Some(e) = e {
                used_locs(program, e, t, uses);
            }
            defs.push(AbsLoc::Var(program.procs[cp.proc].ret_var));
        }
        Cmd::Call { ret, callee, args } => {
            for a in args {
                used_locs(program, a, t, uses);
            }
            if let sga_ir::Callee::Indirect(e) = callee {
                used_locs(program, e, t, uses);
            }
            // Parameter binding: the call is the real producer of the
            // callee's formals, and the real consumer of its return value.
            for &t_pid in pre.call_targets(cp) {
                let callee = &program.procs[t_pid];
                if callee.is_external {
                    continue;
                }
                for &p in &callee.params {
                    defs.push(AbsLoc::Var(p));
                }
                uses.push(AbsLoc::Var(callee.ret_var));
            }
            if let Some(lv) = ret {
                assign_sets(lv, defs, uses);
            }
        }
    }
    defs.sort_unstable();
    defs.dedup();
    uses.sort_unstable();
    uses.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preanalysis;
    use sga_cfront::parse;
    use sga_ir::VarId;
    use std::collections::BTreeSet;

    fn setup(src: &str) -> (Program, PreAnalysis) {
        let p = parse(src).unwrap();
        let pre = preanalysis::run(&p);
        (p, pre)
    }

    fn var(program: &Program, name: &str) -> VarId {
        program
            .vars
            .iter_enumerated()
            .find(|(_, v)| v.name == name)
            .map(|(i, _)| i)
            .unwrap_or_else(|| panic!("no var {name}"))
    }

    fn is_real(du: &DefUse, cp: Cp, l: AbsLoc) -> bool {
        du.real_ids(cp).contains(&du.locs.id(&l).unwrap())
    }

    fn find_cp(program: &Program, pred: impl Fn(&Cmd) -> bool) -> Cp {
        program
            .all_points()
            .find(|cp| pred(program.cmd(*cp)))
            .expect("no matching command")
    }

    #[test]
    fn assign_defines_lhs_uses_rhs() {
        let (p, pre) = setup("int x; int y; int main() { x = y + 1; return 0; }");
        let du = compute(&p, &pre);
        // Skip the zero-init prelude assignments; pick the x = y + 1 node.
        let cp = find_cp(&p, |c| {
            matches!(
                c,
                Cmd::Assign(sga_ir::LVal::Var(_), sga_ir::Expr::Binop(..))
            )
        });
        let (x, y) = (var(&p, "x"), var(&p, "y"));
        assert_eq!(du.defs(cp), &[AbsLoc::Var(x)]);
        assert_eq!(du.uses(cp), &[AbsLoc::Var(y)]);
    }

    #[test]
    fn weak_store_targets_in_uses() {
        // p may point to {x, y}: *p := 0 defines both weakly, so both are
        // also uses (paper Example 1).
        let (p, pre) = setup(
            "int x; int y; int *p;
             int main(int c) { if (c) p = &x; else p = &y; *p = 0; return 0; }",
        );
        let du = compute(&p, &pre);
        let cp = find_cp(&p, |c| matches!(c, Cmd::Assign(sga_ir::LVal::Deref(_), _)));
        let (x, y, pv) = (var(&p, "x"), var(&p, "y"), var(&p, "p"));
        let defs = du.defs(cp);
        assert!(defs.contains(&AbsLoc::Var(x)) && defs.contains(&AbsLoc::Var(y)));
        let uses = du.uses(cp);
        assert!(uses.contains(&AbsLoc::Var(pv)), "pointer itself is used");
        assert!(
            uses.contains(&AbsLoc::Var(x)) && uses.contains(&AbsLoc::Var(y)),
            "weak-update targets must be in Û (Def 5(2)): {uses:?}"
        );
    }

    #[test]
    fn strong_store_targets_not_in_uses() {
        // p points only to x: strong update; x must NOT be in Û (Example 4).
        let (p, pre) = setup("int x; int *p; int main() { p = &x; *p = 1; return 0; }");
        let du = compute(&p, &pre);
        let cp = find_cp(&p, |c| matches!(c, Cmd::Assign(sga_ir::LVal::Deref(_), _)));
        let x = var(&p, "x");
        assert!(du.defs(cp).contains(&AbsLoc::Var(x)));
        assert!(
            !du.uses(cp).contains(&AbsLoc::Var(x)),
            "strong update target must not be a use: {:?}",
            du.uses(cp)
        );
    }

    #[test]
    fn call_relays_callee_accesses() {
        let (p, pre) = setup(
            "int g; int h;
             int f() { g = g + 1; return g; }
             int main() { int r = f(); h = g; return r; }",
        );
        let du = compute(&p, &pre);
        let g = var(&p, "g");
        let f = p.proc_by_name("f").unwrap();
        assert!(du.summary_defs[f].contains(&AbsLoc::Var(g)));
        assert!(du.summary_uses[f].contains(&AbsLoc::Var(g)));
        let call_cp = find_cp(&p, |c| matches!(c, Cmd::Call { .. }));
        assert!(du.defs(call_cp).contains(&AbsLoc::Var(g)), "call relays g");
        assert!(du.uses(call_cp).contains(&AbsLoc::Var(g)));
        // But g is NOT a real def/use of the call command itself.
        assert!(!is_real(&du, call_cp, AbsLoc::Var(g)));
        // The callee's param-free return var is really used at the call.
        let retv = p.procs[f].ret_var;
        assert!(is_real(&du, call_cp, AbsLoc::Var(retv)));
    }

    #[test]
    fn summaries_are_transitive_and_private_filtered() {
        let (p, pre) = setup(
            "int g;
             int h() { g = 1; return 0; }
             int f() { int local = 2; return h() + local; }
             int main() { return f(); }",
        );
        let du = compute(&p, &pre);
        let f = p.proc_by_name("f").unwrap();
        let g = var(&p, "g");
        assert!(
            du.summary_defs[f].contains(&AbsLoc::Var(g)),
            "transitive through h"
        );
        let local = var(&p, "local");
        assert!(
            !du.summary_defs[f].contains(&AbsLoc::Var(local)),
            "private locals are not exported"
        );
    }

    #[test]
    fn recursive_scc_shares_summary() {
        let (p, pre) = setup(
            "int a; int b;
             int odd(int n);
             int even(int n) { if (n == 0) { a = 1; return 1; } return odd(n - 1); }
             int odd(int n) { if (n == 0) { b = 1; return 0; } return even(n - 1); }
             int main() { return even(10); }",
        );
        let du = compute(&p, &pre);
        let even = p.proc_by_name("even").unwrap();
        let odd = p.proc_by_name("odd").unwrap();
        let (a, b) = (var(&p, "a"), var(&p, "b"));
        for proc in [even, odd] {
            assert!(du.summary_defs[proc].contains(&AbsLoc::Var(a)));
            assert!(du.summary_defs[proc].contains(&AbsLoc::Var(b)));
        }
    }

    #[test]
    fn assume_defines_and_uses_refined_vars() {
        let (p, pre) = setup("int main() { int x = 3; if (x < 5) x = 1; return x; }");
        let du = compute(&p, &pre);
        let x = var(&p, "x");
        let cp = find_cp(&p, |c| matches!(c, Cmd::Assume(_)));
        assert!(du.defs(cp).contains(&AbsLoc::Var(x)));
        assert!(du.uses(cp).contains(&AbsLoc::Var(x)));
    }

    #[test]
    fn entry_exit_relays() {
        let (p, pre) = setup(
            "int g;
             int f() { return g; }
             int main() { g = 1; return f(); }",
        );
        let du = compute(&p, &pre);
        let f = p.proc_by_name("f").unwrap();
        let g = var(&p, "g");
        let entry = Cp::new(f, p.procs[f].entry);
        let exit = Cp::new(f, p.procs[f].exit);
        assert!(
            du.defs(entry).contains(&AbsLoc::Var(g)),
            "entry relays used g"
        );
        assert!(du.uses(exit).contains(&AbsLoc::Var(p.procs[f].ret_var)));
        assert!(
            !is_real(&du, entry, AbsLoc::Var(g)),
            "entry relays are contractible"
        );
    }

    #[test]
    fn avg_sizes_are_small_for_sparse_programs() {
        let (p, pre) = setup(
            "int a; int b; int c;
             int main() { a = 1; b = 2; c = a + b; return c; }",
        );
        let du = compute(&p, &pre);
        assert!(du.avg_def_size() < 3.0);
        assert!(du.avg_use_size() < 3.0);
        assert!(du.locs.len() >= 3);
    }

    /// Pass 3 as it was, for one point: two `BTreeSet`s, whatever the
    /// point's role.
    fn full_sets_through_btreesets(
        program: &Program,
        pre: &PreAnalysis,
        du: &DefUse,
        cp: Cp,
    ) -> (Vec<AbsLoc>, Vec<AbsLoc>) {
        let (pid, proc) = (cp.proc, &program.procs[cp.proc]);
        // Locations flowing through this procedure's entry: everything its
        // body (transitively) uses, plus its parameters; through its exit:
        // everything it defines, plus its return variable.
        let mut flow_in: BTreeSet<AbsLoc> = du.summary_uses[pid].iter().copied().collect();
        for &p in &proc.params {
            flow_in.insert(AbsLoc::Var(p));
        }
        let mut flow_out: BTreeSet<AbsLoc> = du.summary_defs[pid].iter().copied().collect();
        flow_out.insert(AbsLoc::Var(proc.ret_var));

        let mut defs: BTreeSet<AbsLoc> = du.real_defs(cp).iter().copied().collect();
        let mut uses: BTreeSet<AbsLoc> = du.real_uses(cp).iter().copied().collect();
        if let Cmd::Call { .. } = program.cmd(cp) {
            for &t_pid in pre.call_targets(cp) {
                let callee = &program.procs[t_pid];
                if callee.is_external {
                    continue;
                }
                defs.extend(du.summary_defs[t_pid].iter().copied());
                uses.extend(du.summary_defs[t_pid].iter().copied());
                uses.extend(du.summary_uses[t_pid].iter().copied());
                for &p in &callee.params {
                    defs.insert(AbsLoc::Var(p));
                }
                uses.insert(AbsLoc::Var(callee.ret_var));
            }
        }
        if cp.node == proc.entry {
            defs.extend(flow_in.iter().copied());
            uses.extend(flow_in.iter().copied());
        }
        if cp.node == proc.exit {
            defs.extend(flow_out.iter().copied());
            uses.extend(flow_out.iter().copied());
        }
        (defs.into_iter().collect(), uses.into_iter().collect())
    }

    /// Pass 2 as it was, for one SCC: two `BTreeSet`s fed per call site.
    fn summaries_through_btreesets(
        program: &Program,
        pre: &PreAnalysis,
        du: &DefUse,
        scc: &[usize],
    ) -> (Vec<AbsLoc>, Vec<AbsLoc>) {
        let mut defs: BTreeSet<AbsLoc> = BTreeSet::new();
        let mut uses: BTreeSet<AbsLoc> = BTreeSet::new();
        for &praw in scc {
            let pid = ProcId::new(praw);
            let proc = &program.procs[pid];
            if proc.is_external {
                continue;
            }
            for nid in proc.nodes.indices() {
                let cp = Cp::new(pid, nid);
                defs.extend(du.real_defs(cp).iter().copied());
                uses.extend(du.real_uses(cp).iter().copied());
                for &t_pid in pre.call_targets(cp) {
                    if scc.contains(&t_pid.index()) {
                        continue;
                    }
                    defs.extend(du.summary_defs[t_pid].iter().copied());
                    uses.extend(du.summary_uses[t_pid].iter().copied());
                }
            }
        }
        let exported = |set: BTreeSet<AbsLoc>| {
            let private = |l: &AbsLoc| is_frame_private(program, l);
            set.into_iter().filter(|l| !private(l)).collect()
        };
        (exported(defs), exported(uses))
    }

    #[test]
    fn copied_real_sets_equal_the_btreeset_sets() {
        for (name, program) in &crate::sparse::differential::corpus() {
            let pre = preanalysis::run(program);
            let du = compute(program, &pre);
            for scc in pre.callgraph.bottom_up_sccs() {
                let want = summaries_through_btreesets(program, &pre, &du, scc);
                assert_eq!(summarize_scc(program, &pre, &du, scc), want, "{name}");
                let pid = ProcId::new(scc[0]);
                assert_eq!(
                    (&du.summary_defs[pid], &du.summary_uses[pid]),
                    (&want.0, &want.1)
                );
            }
            for &cp in du.points() {
                let (defs, uses) = full_sets_through_btreesets(program, &pre, &du, cp);
                assert_eq!(
                    (du.defs(cp), du.uses(cp)),
                    (&defs[..], &uses[..]),
                    "{name}: {cp}"
                );
            }
            let solved = program
                .all_points()
                .filter(|cp| !program.procs[cp.proc].is_external);
            assert!(du.points().iter().copied().eq(solved), "{name}");
        }
    }

    /// The id rows and the location rows are written in one pass, and
    /// nothing else ties them together: each id row decodes to its
    /// location row, and the real ids to exactly the real defs and uses.
    #[test]
    fn id_rows_decode_to_the_location_rows() {
        for (name, program) in crate::preanalysis::reference::differential_programs() {
            let pre = preanalysis::run(&program);
            let du = compute(&program, &pre);
            let decode = |ids: &[u32]| -> Vec<AbsLoc> {
                let mut locs: Vec<AbsLoc> = ids.iter().map(|&id| du.locs.loc(id)).collect();
                locs.sort_unstable();
                locs
            };
            for cp in program.all_points() {
                assert_eq!(decode(du.def_ids(cp)), du.defs(cp), "{name}: {cp} D̂");
                assert_eq!(decode(du.use_ids(cp)), du.uses(cp), "{name}: {cp} Û");
                let mut real: Vec<AbsLoc> = du.real_defs(cp).to_vec();
                real.extend_from_slice(du.real_uses(cp));
                real.sort_unstable();
                real.dedup();
                assert_eq!(decode(du.real_ids(cp)), real, "{name}: {cp} real");
                for ids in [du.def_ids(cp), du.use_ids(cp), du.real_ids(cp)] {
                    assert!(ids.windows(2).all(|w| w[0] < w[1]), "{name}: {cp}");
                }
            }
        }
    }
}
