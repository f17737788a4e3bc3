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

use crate::preanalysis::PreAnalysis;
use crate::semantics::{lval_targets, lval_used, used_locs};
use sga_domains::{AbsLoc, State};
use sga_ir::{Cmd, Cp, Expr, PointNumbering, ProcId, Program, VarKind};
use sga_utils::{FxHashMap, Idx, IndexVec, Rows};
use std::collections::BTreeSet;

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

/// Def/use sets for one control point (sorted, deduplicated).
#[derive(Clone, Debug, Default)]
pub struct CpSets {
    /// Semantic (command-level) definitions.
    pub real_defs: Vec<AbsLoc>,
    /// Semantic uses.
    pub real_uses: Vec<AbsLoc>,
    /// `D̂(c)`: real defs plus relayed locations.
    pub defs: Vec<AbsLoc>,
    /// `Û(c)`: real uses plus relayed locations.
    pub uses: Vec<AbsLoc>,
}

/// The complete def/use computation result.
#[derive(Debug)]
pub struct DefUse {
    /// Per-control-point sets.
    pub sets: FxHashMap<Cp, CpSets>,
    /// Exported (caller-visible) defs of each procedure, transitively.
    pub summary_defs: IndexVec<ProcId, Vec<AbsLoc>>,
    /// Exported uses of each procedure, transitively.
    pub summary_uses: IndexVec<ProcId, Vec<AbsLoc>>,
    /// All locations seen, densely numbered.
    pub locs: LocTable,
    /// The program's dense point numbering, which the id rows below index.
    num: PointNumbering,
    /// Per point, `D̂`, `Û`, and the real defs and uses, as ascending
    /// location ids: what dependency generation reads.
    def_ids: Rows<u32>,
    use_ids: Rows<u32>,
    real_ids: Rows<u32>,
}

impl DefUse {
    /// `D̂(c)`.
    pub fn defs(&self, cp: Cp) -> &[AbsLoc] {
        self.sets.get(&cp).map_or(&[], |s| &s.defs)
    }

    /// `Û(c)`.
    pub fn uses(&self, cp: Cp) -> &[AbsLoc] {
        self.sets.get(&cp).map_or(&[], |s| &s.uses)
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
        avg(self.sets.values().map(|s| s.defs.len()))
    }

    /// Average `|Û(c)|` — Table 2's `Û(c)` column.
    pub fn avg_use_size(&self) -> f64 {
        avg(self.sets.values().map(|s| s.uses.len()))
    }
}

fn avg(sizes: impl Iterator<Item = usize>) -> f64 {
    let (mut n, mut total) = (0usize, 0usize);
    for s in sizes {
        n += 1;
        total += s;
    }
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
    // Pass 1: real sets per node.
    let mut sets: FxHashMap<Cp, CpSets> = FxHashMap::default();
    for pid in program.procs.indices() {
        sets.extend(real_sets_for_proc(program, pre, t, pid));
    }

    // Pass 2: transitive access summaries, bottom-up over call-graph SCCs.
    let nprocs = program.procs.len();
    let mut summary_defs: IndexVec<ProcId, Vec<AbsLoc>> = IndexVec::from_elem_n(Vec::new(), nprocs);
    let mut summary_uses: IndexVec<ProcId, Vec<AbsLoc>> = IndexVec::from_elem_n(Vec::new(), nprocs);
    for scc in pre.callgraph.bottom_up_sccs() {
        let (exported_defs, exported_uses) =
            summarize_scc(program, pre, &sets, scc, &summary_defs, &summary_uses);
        for &praw in scc {
            let pid = ProcId::new(praw);
            summary_defs[pid] = exported_defs.clone();
            summary_uses[pid] = exported_uses.clone();
        }
    }

    // Pass 3: full sets with relay roles, then deterministic interning.
    let parts: Vec<ProcFullSets> = program
        .procs
        .indices()
        .map(|pid| relay_sets_for_proc(program, pre, pid, &sets, &summary_defs, &summary_uses))
        .collect();
    finish(
        program.point_numbering(),
        sets,
        summary_defs,
        summary_uses,
        parts,
    )
}

/// Full `D̂`/`Û` sets of one procedure's control points, in node order
/// (pass 3's per-procedure output, not yet interned).
type ProcFullSets = Vec<(Cp, Vec<AbsLoc>, Vec<AbsLoc>)>;

/// Pass 1 for one procedure: the real (semantic) def/use sets of each of
/// its control points.
fn real_sets_for_proc(
    program: &Program,
    pre: &PreAnalysis,
    t: &State,
    pid: ProcId,
) -> Vec<(Cp, CpSets)> {
    let proc = &program.procs[pid];
    if proc.is_external {
        return Vec::new();
    }
    proc.nodes
        .iter_enumerated()
        .map(|(nid, node)| {
            let cp = Cp::new(pid, nid);
            let (real_defs, real_uses) = real_def_use(program, pre, t, cp, &node.cmd);
            (
                cp,
                CpSets {
                    real_defs,
                    real_uses,
                    defs: Vec::new(),
                    uses: Vec::new(),
                },
            )
        })
        .collect()
}

/// Pass 2 for one call-graph SCC: the exported (caller-visible) accesses of
/// its procedures, given the summaries of everything below it.
fn summarize_scc(
    program: &Program,
    pre: &PreAnalysis,
    sets: &FxHashMap<Cp, CpSets>,
    scc: &[usize],
    summary_defs: &IndexVec<ProcId, Vec<AbsLoc>>,
    summary_uses: &IndexVec<ProcId, Vec<AbsLoc>>,
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
            let s = &sets[&cp];
            defs.extend(s.real_defs.iter().copied());
            uses.extend(s.real_uses.iter().copied());
            for &t_pid in pre.call_targets(cp) {
                if scc.contains(&t_pid.index()) {
                    continue; // same-SCC summaries converge to the union
                }
                defs.extend(summary_defs[t_pid].iter().copied());
                uses.extend(summary_uses[t_pid].iter().copied());
            }
        }
    }
    let exported_defs: Vec<AbsLoc> = defs
        .iter()
        .copied()
        .filter(|l| !is_frame_private(program, l))
        .collect();
    let exported_uses: Vec<AbsLoc> = uses
        .iter()
        .copied()
        .filter(|l| !is_frame_private(program, l))
        .collect();
    (exported_defs, exported_uses)
}

/// Pass 3 for one procedure: the full `D̂`/`Û` sets (real sets extended with
/// relay roles), given everyone's summaries. The outputs are handed to
/// [`finish`] in procedure order so location interning stays deterministic.
fn relay_sets_for_proc(
    program: &Program,
    pre: &PreAnalysis,
    pid: ProcId,
    sets: &FxHashMap<Cp, CpSets>,
    summary_defs: &IndexVec<ProcId, Vec<AbsLoc>>,
    summary_uses: &IndexVec<ProcId, Vec<AbsLoc>>,
) -> ProcFullSets {
    let proc = &program.procs[pid];
    if proc.is_external {
        return Vec::new();
    }
    // Locations flowing through this procedure's entry: everything its
    // body (transitively) uses, plus its parameters; through its exit:
    // everything it defines, plus its return variable.
    let mut flow_in: BTreeSet<AbsLoc> = summary_uses[pid].iter().copied().collect();
    for &p in &proc.params {
        flow_in.insert(AbsLoc::Var(p));
    }
    let mut flow_out: BTreeSet<AbsLoc> = summary_defs[pid].iter().copied().collect();
    flow_out.insert(AbsLoc::Var(proc.ret_var));

    let mut out: ProcFullSets = Vec::with_capacity(proc.nodes.len());
    for (nid, node) in proc.nodes.iter_enumerated() {
        let cp = Cp::new(pid, nid);
        let real = &sets[&cp];
        if !matches!(node.cmd, Cmd::Call { .. }) && nid != proc.entry && nid != proc.exit {
            // No relay role: the full sets are the real ones, already
            // sorted and deduplicated.
            out.push((cp, real.real_defs.clone(), real.real_uses.clone()));
            continue;
        }
        let mut defs: BTreeSet<AbsLoc> = real.real_defs.iter().copied().collect();
        let mut uses: BTreeSet<AbsLoc> = real.real_uses.iter().copied().collect();
        if let Cmd::Call { .. } = &node.cmd {
            for &t_pid in pre.call_targets(cp) {
                let callee = &program.procs[t_pid];
                if callee.is_external {
                    continue;
                }
                // The call receives callee-defined values back and
                // relays them on; spurious (may-)defs go into Û per
                // Definition 5(2). Callee-*used* locations are NOT
                // relayed through the call: the dependency generator
                // routes their reaching definitions straight to the
                // callee entry (pre-call values must not mix with
                // returned ones), and keeps them in Û only so the
                // reaching-def pass visits this node.
                defs.extend(summary_defs[t_pid].iter().copied());
                uses.extend(summary_defs[t_pid].iter().copied());
                uses.extend(summary_uses[t_pid].iter().copied());
                for &p in &callee.params {
                    defs.insert(AbsLoc::Var(p));
                }
                uses.insert(AbsLoc::Var(callee.ret_var));
            }
        }
        if nid == proc.entry {
            defs.extend(flow_in.iter().copied());
            uses.extend(flow_in.iter().copied());
        }
        if nid == proc.exit {
            defs.extend(flow_out.iter().copied());
            uses.extend(flow_out.iter().copied());
        }
        out.push((cp, defs.into_iter().collect(), uses.into_iter().collect()));
    }
    out
}

/// Merges the pass-3 outputs into the final [`DefUse`], interning locations
/// in the order the parts are given (pass the parts in procedure order for
/// run-to-run determinism) and writing each point's id rows as it goes.
fn finish(
    num: PointNumbering,
    mut sets: FxHashMap<Cp, CpSets>,
    summary_defs: IndexVec<ProcId, Vec<AbsLoc>>,
    summary_uses: IndexVec<ProcId, Vec<AbsLoc>>,
    parts: Vec<ProcFullSets>,
) -> DefUse {
    let mut locs = LocTable::default();
    let mut rows: [Rows<u32>; 3] = Default::default();
    let (mut d, mut u, mut real) = (Vec::new(), Vec::new(), Vec::new());
    for part in parts {
        for (cp, defs, uses) in part {
            let s = sets.get_mut(&cp).expect("pass 1 visited every node");
            d.clear();
            d.extend(defs.iter().map(|l| locs.intern(*l)));
            u.clear();
            u.extend(uses.iter().map(|l| locs.intern(*l)));
            real.clear();
            real.extend(ids_of_subset(&defs, &d, &s.real_defs));
            real.extend(ids_of_subset(&uses, &u, &s.real_uses));
            for (row, ids) in rows.iter_mut().zip([&mut d, &mut u, &mut real]) {
                ids.sort_unstable();
                ids.dedup();
                row.pad_to(num.index(cp));
                row.push_row(ids.iter().copied());
            }
            s.defs = defs;
            s.uses = uses;
        }
    }
    for row in &mut rows {
        row.pad_to(num.len());
    }
    let [def_ids, use_ids, real_ids] = rows;
    DefUse {
        sets,
        summary_defs,
        summary_uses,
        locs,
        num,
        def_ids,
        use_ids,
        real_ids,
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

fn real_def_use(
    program: &Program,
    pre: &PreAnalysis,
    t: &State,
    cp: Cp,
    cmd: &Cmd,
) -> (Vec<AbsLoc>, Vec<AbsLoc>) {
    let mut defs: Vec<AbsLoc> = Vec::new();
    let mut uses: Vec<AbsLoc> = Vec::new();
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
            used_locs(program, e, t, &mut uses);
            assign_sets(lv, &mut defs, &mut uses);
        }
        Cmd::Alloc(lv, size) => {
            used_locs(program, size, t, &mut uses);
            assign_sets(lv, &mut defs, &mut uses);
        }
        Cmd::Assume(cond) => {
            used_locs(program, &cond.lhs, t, &mut uses);
            used_locs(program, &cond.rhs, t, &mut uses);
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
                used_locs(program, e, t, &mut uses);
            }
            defs.push(AbsLoc::Var(program.procs[cp.proc].ret_var));
        }
        Cmd::Call { ret, callee, args } => {
            for a in args {
                used_locs(program, a, t, &mut uses);
            }
            if let sga_ir::Callee::Indirect(e) = callee {
                used_locs(program, e, t, &mut uses);
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
                assign_sets(lv, &mut defs, &mut uses);
            }
        }
    }
    defs.sort_unstable();
    defs.dedup();
    uses.sort_unstable();
    uses.dedup();
    (defs, uses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preanalysis;
    use sga_cfront::parse;
    use sga_ir::VarId;

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

    /// [`relay_sets_for_proc`] as it was: two `BTreeSet`s at every point.
    fn relay_sets_through_btreesets(
        program: &Program,
        pre: &PreAnalysis,
        pid: ProcId,
        sets: &FxHashMap<Cp, CpSets>,
        summary_defs: &IndexVec<ProcId, Vec<AbsLoc>>,
        summary_uses: &IndexVec<ProcId, Vec<AbsLoc>>,
    ) -> ProcFullSets {
        let proc = &program.procs[pid];
        if proc.is_external {
            return Vec::new();
        }
        // Locations flowing through this procedure's entry: everything its
        // body (transitively) uses, plus its parameters; through its exit:
        // everything it defines, plus its return variable.
        let mut flow_in: BTreeSet<AbsLoc> = summary_uses[pid].iter().copied().collect();
        for &p in &proc.params {
            flow_in.insert(AbsLoc::Var(p));
        }
        let mut flow_out: BTreeSet<AbsLoc> = summary_defs[pid].iter().copied().collect();
        flow_out.insert(AbsLoc::Var(proc.ret_var));

        let mut out: ProcFullSets = Vec::with_capacity(proc.nodes.len());
        for (nid, node) in proc.nodes.iter_enumerated() {
            let cp = Cp::new(pid, nid);
            let mut defs: BTreeSet<AbsLoc> = BTreeSet::new();
            let mut uses: BTreeSet<AbsLoc> = BTreeSet::new();
            {
                let s = &sets[&cp];
                defs.extend(s.real_defs.iter().copied());
                uses.extend(s.real_uses.iter().copied());
            }
            if let Cmd::Call { .. } = &node.cmd {
                for &t_pid in pre.call_targets(cp) {
                    let callee = &program.procs[t_pid];
                    if callee.is_external {
                        continue;
                    }
                    // The call receives callee-defined values back and
                    // relays them on; spurious (may-)defs go into Û per
                    // Definition 5(2). Callee-*used* locations are NOT
                    // relayed through the call: the dependency generator
                    // routes their reaching definitions straight to the
                    // callee entry (pre-call values must not mix with
                    // returned ones), and keeps them in Û only so the
                    // reaching-def pass visits this node.
                    defs.extend(summary_defs[t_pid].iter().copied());
                    uses.extend(summary_defs[t_pid].iter().copied());
                    uses.extend(summary_uses[t_pid].iter().copied());
                    for &p in &callee.params {
                        defs.insert(AbsLoc::Var(p));
                    }
                    uses.insert(AbsLoc::Var(callee.ret_var));
                }
            }
            if nid == proc.entry {
                defs.extend(flow_in.iter().copied());
                uses.extend(flow_in.iter().copied());
            }
            if nid == proc.exit {
                defs.extend(flow_out.iter().copied());
                uses.extend(flow_out.iter().copied());
            }
            out.push((cp, defs.into_iter().collect(), uses.into_iter().collect()));
        }
        out
    }

    #[test]
    fn copied_real_sets_equal_the_btreeset_sets() {
        for (name, program) in &crate::sparse::differential::corpus() {
            let pre = preanalysis::run(program);
            let du = compute(program, &pre);
            let mut points = 0;
            for pid in program.procs.indices() {
                let staged = |relay: fn(_, _, _, _, _, _) -> ProcFullSets| {
                    relay(
                        program,
                        &pre,
                        pid,
                        &du.sets,
                        &du.summary_defs,
                        &du.summary_uses,
                    )
                };
                let got = staged(relay_sets_for_proc);
                assert_eq!(got, staged(relay_sets_through_btreesets), "{name}: {pid}");
                // `finish` stores pass 3's output as it is, and its id rows.
                let ids = |locs: &mut dyn Iterator<Item = &AbsLoc>| {
                    let mut ids: Vec<u32> = locs.map(|l| du.locs.id(l).unwrap()).collect();
                    ids.sort_unstable();
                    ids.dedup();
                    ids
                };
                for (cp, defs, uses) in got {
                    assert_eq!((du.defs(cp), du.uses(cp)), (&defs[..], &uses[..]));
                    assert_eq!(du.def_ids(cp), ids(&mut defs.iter()));
                    assert_eq!(du.use_ids(cp), ids(&mut uses.iter()));
                    let s = &du.sets[&cp];
                    let real = ids(&mut s.real_defs.iter().chain(&s.real_uses));
                    assert_eq!(du.real_ids(cp), real, "{name}: {cp}");
                    points += 1;
                }
            }
            assert_eq!(points, du.sets.len(), "{name}");
        }
    }
}
