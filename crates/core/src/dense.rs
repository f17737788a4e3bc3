//! The dense worklist fixpoint engine — the baseline the sparse analysis is
//! derived from.
//!
//! Computes `lfp F̂` where `F̂(X)(c) = f̂_c(⊔_{c' ↪ c} X(c'))` (equation (3)
//! of the paper), generalized with per-edge transfers for the
//! interprocedural edges. One engine serves both the `vanilla` and `base`
//! analyzers (they differ only in whether [`DenseSpec::passed_to`] and
//! [`DenseSpec::handed_back`] localize) and every instance (they differ in
//! the state type and its bindings); the call/return routing is [`edge`],
//! written once.
//!
//! The solve runs an ascending phase with widening at the ICFG's widening
//! points, then bounded descending (narrowing) rounds — the "conventional
//! widening operator" setup of §6.1.

use crate::budget::Budget;
use crate::icfg::{EdgeKind, Icfg, InEdge};
use crate::widening::WideningPlan;
use sga_domains::Thresholds;
use sga_ir::{Cmd, Cp, Expr, LVal, ProcId, Program};
use sga_utils::FxHashMap;
use std::collections::BTreeSet;

/// The parts of a dense analysis that vary per instance/engine.
pub trait DenseSpec {
    /// Abstract state attached to each control point.
    type St: Clone + PartialEq;

    /// ⊥ — the state of a point before any information arrives.
    fn bottom(&self) -> Self::St;

    /// The state flowing into `main`'s entry.
    fn initial(&self) -> Self::St;

    /// The node transfer function `f̂_c`.
    fn transfer(&self, cp: Cp, input: &Self::St) -> Self::St;

    /// Call-edge binding: `s` with `callee`'s formals bound to `args`, read
    /// over `s` (an unknown integer for a missing actual).
    fn bind_args(&self, callee: ProcId, args: &[Expr], s: &Self::St) -> Self::St;

    /// Return-edge binding: `s` with `callee`'s return value written
    /// through `ret`.
    fn bind_return(&self, callee: ProcId, ret: Option<&LVal>, s: &Self::St) -> Self::St;

    /// External-return binding: `s` with an unknown result written through
    /// `ret`.
    fn bind_external(&self, ret: Option<&LVal>, s: &Self::St) -> Self::St;

    /// Base localization: `s` cut to what a call edge passes `callee`, or
    /// `None` for the vanilla engine, which passes whole states.
    fn passed_to(&self, callee: ProcId, s: &Self::St) -> Option<Self::St>;

    /// Base localization: `s` cut to the effects `callee`'s return edge
    /// hands back, or `None` for the vanilla engine.
    fn handed_back(&self, callee: ProcId, s: &Self::St) -> Option<Self::St>;

    /// Least upper bound.
    fn join(&self, a: &Self::St, b: &Self::St) -> Self::St;

    /// Widening.
    fn widen(&self, a: &Self::St, b: &Self::St) -> Self::St;

    /// Threshold widening; defaults to ignoring the thresholds.
    fn widen_with(&self, a: &Self::St, b: &Self::St, thresholds: &Thresholds) -> Self::St {
        let _ = thresholds;
        self.widen(a, b)
    }

    /// Narrowing.
    fn narrow(&self, a: &Self::St, b: &Self::St) -> Self::St;
}

/// The dense fixpoint: post-states per control point.
#[derive(Debug)]
pub struct DenseResult<St> {
    /// Post-state of every control point (absent = ⊥).
    pub post: FxHashMap<Cp, St>,
    /// Node evaluations during the ascending phase.
    pub iterations: usize,
    /// Descending rounds executed.
    pub narrowing_rounds: usize,
    /// Whether the analysis budget ran out. A degraded result is still a
    /// sound post-fixpoint — the remaining ascent used immediate plain
    /// widening and the descending phase was skipped — but it is less
    /// precise than the unbounded fixpoint.
    pub degraded: bool,
}

impl<St> DenseResult<St> {
    /// Post-state at `cp`, if any information reached it.
    pub fn post_at(&self, cp: Cp) -> Option<&St> {
        self.post.get(&cp)
    }
}

/// Runs the dense analysis with the naive widening plan. See [`solve_with`].
pub fn solve<S: DenseSpec>(program: &Program, icfg: &Icfg, spec: &S) -> DenseResult<S::St> {
    solve_with(
        program,
        icfg,
        spec,
        &WideningPlan::naive(),
        &Budget::unbounded(),
    )
}

/// The state flowing into `cp` under the post-states `post`: the join of
/// its ICFG in-edges through [`edge`], plus the initial state at
/// `main`'s entry — what the solver feeds `f̂_c`, and what a query of a
/// finished result reads.
pub fn input<S: DenseSpec>(
    program: &Program,
    icfg: &Icfg,
    spec: &S,
    post: &FxHashMap<Cp, S::St>,
    cp: Cp,
) -> S::St {
    let mut acc = if cp == Cp::new(program.main, program.procs[program.main].entry) {
        spec.initial()
    } else {
        spec.bottom()
    };
    for e in icfg.incoming(cp) {
        if let Some(v) = edge(program, spec, post, cp, e) {
            acc = spec.join(&acc, &v);
        }
    }
    acc
}

/// What the ICFG edge `e` into `dst` carries under the post-states `post`
/// (`None` while its source has none): the call/return routing of every
/// dense instance. An intraprocedural edge passes the state on, a call edge
/// binds the callee's formals, an external return writes an unknown result,
/// and a return edge writes the callee's return value through the call's
/// l-value. Under base localization a call edge passes only what the callee
/// accesses, and a return edge first joins the callee's effects with the
/// caller's state at the call (a weak return join).
pub fn edge<S: DenseSpec>(
    program: &Program,
    spec: &S,
    post: &FxHashMap<Cp, S::St>,
    dst: Cp,
    e: &InEdge,
) -> Option<S::St> {
    let src_post = post.get(&e.src)?;
    let call = |site: Cp| match program.cmd(site) {
        Cmd::Call { ret, args, .. } => (ret.as_ref(), args.as_slice()),
        _ => unreachable!("interprocedural edge from a non-call site"),
    };
    Some(match e.kind {
        EdgeKind::Intra => src_post.clone(),
        EdgeKind::Call { site } => {
            let bound = spec.bind_args(dst.proc, call(site).1, src_post);
            spec.passed_to(dst.proc, &bound).unwrap_or(bound)
        }
        EdgeKind::Return { site } => {
            let callee = e.src.proc;
            match spec.handed_back(callee, src_post) {
                Some(effects) => {
                    let merged = match post.get(&site) {
                        Some(caller) => spec.join(caller, &effects),
                        None => effects,
                    };
                    spec.bind_return(callee, call(site).0, &merged)
                }
                None => spec.bind_return(callee, call(site).0, src_post),
            }
        }
        EdgeKind::ExternalRet { site } => spec.bind_external(call(site).0, src_post),
    })
}

/// Runs the dense analysis to its (narrowed) fixpoint.
///
/// `plan` selects the widening strategy: the first `plan.delay` *changing*
/// updates at each widening point are plain joins, after which threshold
/// widening ([`DenseSpec::widen_with`]) takes over.
///
/// `budget` bounds the ascending phase. On exhaustion the solve *degrades
/// soundly*: every further widening-point update applies the plain widening
/// operator immediately (no delay, no thresholds), the ascent runs to
/// quiescence, and the descending phase is skipped. The returned
/// post-fixpoint over-approximates the unbounded one and `degraded` is set.
///
/// # Panics
///
/// Panics if the ascending phase exceeds its internal iteration backstop
/// even after degradation — which indicates a widening bug, not a big
/// program.
pub fn solve_with<S: DenseSpec>(
    program: &Program,
    icfg: &Icfg,
    spec: &S,
    plan: &WideningPlan,
    budget: &Budget,
) -> DenseResult<S::St> {
    let mut post: FxHashMap<Cp, S::St> = FxHashMap::default();
    let mut worklist: BTreeSet<(u32, Cp)> = BTreeSet::new();
    let all_points: Vec<Cp> = program
        .all_points()
        .filter(|cp| !program.procs[cp.proc].is_external)
        .collect();
    for &cp in &all_points {
        worklist.insert((icfg.priority[&cp], cp));
    }

    let compute_in = |post: &FxHashMap<Cp, S::St>, cp: Cp| input(program, icfg, spec, post, cp);

    let backstop = 2000usize.saturating_mul(all_points.len()).max(100_000);
    let mut iterations = 0usize;
    let mut meter = budget.start();
    let mut degraded = false;
    // Changing updates seen per widening point, for delayed widening.
    let mut widen_delay: FxHashMap<Cp, u32> = FxHashMap::default();
    while let Some(&(prio, cp)) = worklist.iter().next() {
        worklist.remove(&(prio, cp));
        iterations += 1;
        assert!(
            iterations <= backstop,
            "dense fixpoint exceeded {backstop} iterations: widening failure at {cp}"
        );
        degraded |= meter.step();
        let input = compute_in(&post, cp);
        let mut new_post = spec.transfer(cp, &input);
        let old = post.get(&cp);
        if icfg.widen_points.contains(&cp) {
            if let Some(old) = old {
                let joined = spec.join(old, &new_post);
                if joined == *old {
                    new_post = joined;
                } else if degraded {
                    // Over budget: widen immediately with the plain operator
                    // so every still-rising chain stabilizes in one step.
                    new_post = spec.widen(old, &new_post);
                } else {
                    let seen = widen_delay.entry(cp).or_insert(0);
                    if *seen < plan.delay {
                        *seen += 1;
                        new_post = joined;
                    } else {
                        new_post = spec.widen_with(old, &new_post, &plan.thresholds);
                    }
                }
            }
        }
        let changed = old != Some(&new_post);
        if changed {
            post.insert(cp, new_post);
            for &t in icfg.targets(cp) {
                worklist.insert((icfg.priority[&t], t));
            }
        }
    }

    // Descending (narrowing) phase: change-driven from above — monotone, so
    // skipping points whose inputs did not change is exact. A per-point cap
    // bounds descent. Skipped entirely when the budget ran out: the
    // ascending result is already a post-fixpoint, and descending work is
    // exactly the precision-chasing the budget said we cannot afford.
    const MAX_DESCENDS_PER_POINT: u8 = 4;
    let mut narrowing_rounds = 0usize;
    let mut desc_count: FxHashMap<Cp, u8> = FxHashMap::default();
    let mut worklist: BTreeSet<(u32, Cp)> = BTreeSet::new();
    if !degraded {
        for &cp in &all_points {
            worklist.insert((icfg.priority[&cp], cp));
        }
    }
    while let Some(&(prio, cp)) = worklist.iter().next() {
        worklist.remove(&(prio, cp));
        let count = desc_count.entry(cp).or_insert(0);
        if *count >= MAX_DESCENDS_PER_POINT {
            continue;
        }
        *count += 1;
        narrowing_rounds += 1;
        let input = compute_in(&post, cp);
        let candidate = spec.transfer(cp, &input);
        let new_post = match post.get(&cp) {
            Some(old) if icfg.widen_points.contains(&cp) => {
                // Threshold widening can overshoot finitely and `narrow`
                // refines only infinite bounds, so under a threshold plan a
                // candidate below the stored state (tested via join) is
                // accepted outright — a capped descending-iteration step.
                if !plan.thresholds.is_empty() && spec.join(&candidate, old) == *old {
                    candidate
                } else {
                    spec.narrow(old, &candidate)
                }
            }
            _ => candidate,
        };
        if post.get(&cp) != Some(&new_post) {
            post.insert(cp, new_post);
            for &t in icfg.targets(cp) {
                worklist.insert((icfg.priority[&t], t));
            }
        }
    }

    DenseResult {
        post,
        iterations,
        narrowing_rounds,
        degraded,
    }
}
