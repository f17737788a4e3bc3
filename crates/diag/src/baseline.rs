//! Run-over-run baseline diffing.
//!
//! `sga analyze --baseline old-report.json` classifies every diagnostic of
//! the current run against a previous report **by fingerprint**: a
//! fingerprint present in both runs is `unchanged`, one only in the
//! current run is `new`, one only in the baseline is `fixed`. Fingerprints
//! are compared as multisets, so two same-subject findings in one
//! procedure are matched pairwise, not collapsed.

use crate::Diagnostic;
use sga_utils::{FxHashMap, Json};

/// Summary of a baseline comparison.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BaselineDiff {
    /// Fingerprints present now but not in the baseline.
    pub new: Vec<u64>,
    /// Fingerprints present in the baseline but gone now.
    pub fixed: Vec<u64>,
    /// Count of fingerprints present in both.
    pub unchanged: usize,
    /// How many of the `new` findings are open and definite — the CI
    /// gate's failure condition.
    pub new_definite: usize,
}

impl BaselineDiff {
    /// The `{new, fixed, unchanged, new_definite}` block: a report's
    /// `baseline` under `--baseline`, and the body of the daemon's diff
    /// event.
    pub fn to_json(&self) -> Json {
        let hex = |fps: &[u64]| {
            fps.iter()
                .map(|fp| Json::from(format!("{fp:016x}")))
                .collect::<Vec<_>>()
        };
        Json::obj()
            .with("new", hex(&self.new))
            .with("fixed", hex(&self.fixed))
            .with("unchanged", self.unchanged)
            .with("new_definite", self.new_definite)
    }
}

/// Classification of one current diagnostic.
pub const NEW: &str = "new";
/// Classification of a diagnostic matched in the baseline.
pub const UNCHANGED: &str = "unchanged";

/// Compares the current run's `(fingerprint, open-and-definite)` pairs
/// against the baseline's fingerprints. Returns the per-diagnostic
/// classification (aligned with `current`) plus the summary.
pub fn classify(current: &[(u64, bool)], baseline: &[u64]) -> (Vec<&'static str>, BaselineDiff) {
    let mut remaining: FxHashMap<u64, usize> = FxHashMap::default();
    for &fp in baseline {
        *remaining.entry(fp).or_insert(0) += 1;
    }
    let mut classes = Vec::with_capacity(current.len());
    let mut diff = BaselineDiff::default();
    for &(fp, definite) in current {
        match remaining.get_mut(&fp) {
            Some(n) if *n > 0 => {
                *n -= 1;
                diff.unchanged += 1;
                classes.push(UNCHANGED);
            }
            _ => {
                diff.new.push(fp);
                if definite {
                    diff.new_definite += 1;
                }
                classes.push(NEW);
            }
        }
    }
    let mut fixed: Vec<u64> = remaining
        .into_iter()
        .flat_map(|(fp, n)| std::iter::repeat_n(fp, n))
        .collect();
    fixed.sort_unstable();
    diff.fixed = fixed;
    diff.new.sort_unstable();
    (classes, diff)
}

/// Pure run-over-run diff of two diagnostic sets: the current run's *open*
/// diagnostics classified against the baseline's *open* fingerprints
/// (multiset match, like [`classify`]). Discharged diagnostics never
/// participate on either side — an alarm the octagon proved impossible is
/// not an outstanding finding in either run. This is the set-level
/// primitive behind both `--baseline` report annotation and the
/// incremental daemon's streamed alarm diffs.
pub fn diff_open<'a, 'b>(
    current: impl IntoIterator<Item = &'a Diagnostic>,
    baseline: impl IntoIterator<Item = &'b Diagnostic>,
) -> BaselineDiff {
    let cur: Vec<(u64, bool)> = current
        .into_iter()
        .filter(|d| d.is_open())
        .map(|d| (d.fingerprint, d.definite))
        .collect();
    let base: Vec<u64> = baseline
        .into_iter()
        .filter(|d| d.is_open())
        .map(|d| d.fingerprint)
        .collect();
    classify(&cur, &base).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiagKind, DischargeMethod, Evidence, Status};
    use sga_ir::{Cp, NodeId, ProcId};
    use sga_utils::Idx;

    #[test]
    fn self_diff_is_all_unchanged() {
        let cur = [(1u64, true), (2, false), (2, false)];
        let base = [1u64, 2, 2];
        let (classes, diff) = classify(&cur, &base);
        assert_eq!(classes, vec![UNCHANGED; 3]);
        assert_eq!(diff.unchanged, 3);
        assert!(diff.new.is_empty() && diff.fixed.is_empty());
        assert_eq!(diff.new_definite, 0);
    }

    #[test]
    fn multiset_matching_pairs_duplicates() {
        // Two copies now, one before: exactly one is new.
        let (classes, diff) = classify(&[(7, false), (7, true)], &[7]);
        assert_eq!(classes, vec![UNCHANGED, NEW]);
        assert_eq!(diff.new, vec![7]);
        assert_eq!(diff.new_definite, 1);
    }

    #[test]
    fn fixed_are_the_leftovers() {
        let (_, diff) = classify(&[(1, false)], &[1, 2, 2]);
        assert_eq!(diff.fixed, vec![2, 2]);
        assert_eq!(diff.unchanged, 1);
    }

    #[test]
    fn new_definite_counts_only_definite() {
        let (_, diff) = classify(&[(3, false), (4, true)], &[]);
        assert_eq!(diff.new.len(), 2);
        assert_eq!(diff.new_definite, 1);
    }

    /// A minimal diagnostic with the given fingerprint/definite/status.
    fn diag(fingerprint: u64, definite: bool, open: bool) -> Diagnostic {
        let mut d = Diagnostic::new(
            DiagKind::DivByZero,
            Cp::new(ProcId::new(0), NodeId::new(0)),
            1,
            "f",
            None,
            "x",
            definite,
            Evidence::DivByZero {
                divisor: "[-oo,+oo]".into(),
                nth: 0,
            },
        );
        d.fingerprint = fingerprint;
        if !open {
            d.status = Status::Discharged {
                method: DischargeMethod::Octagon,
                pack: "{x}".into(),
                reason: "x >= 1".into(),
            };
        }
        d
    }

    #[test]
    fn diff_open_classifies_by_fingerprint() {
        let current = [diag(1, false, true), diag(3, true, true)];
        let baseline = [diag(1, false, true), diag(2, false, true)];
        let diff = diff_open(&current, &baseline);
        assert_eq!(diff.new, vec![3]);
        assert_eq!(diff.fixed, vec![2]);
        assert_eq!(diff.unchanged, 1);
        assert_eq!(diff.new_definite, 1);
    }

    #[test]
    fn diff_open_ignores_discharged_on_both_sides() {
        // A discharged alarm is not outstanding: discharging it reads as
        // `fixed`, and a discharged baseline entry cannot absorb a live one.
        let current = [diag(1, false, false), diag(2, true, true)];
        let baseline = [diag(1, false, true), diag(2, true, false)];
        let diff = diff_open(&current, &baseline);
        assert_eq!(diff.new, vec![2]);
        assert_eq!(diff.fixed, vec![1]);
        assert_eq!(diff.unchanged, 0);
        assert_eq!(diff.new_definite, 1);
    }

    #[test]
    fn diff_open_of_identical_sets_is_empty() {
        let run = [diag(5, true, true), diag(6, false, false)];
        let diff = diff_open(&run, &run);
        assert!(diff.new.is_empty() && diff.fixed.is_empty());
        assert_eq!(diff.unchanged, 1);
    }
}
