//! Correctness checks against references the timed passes did not just
//! produce: the golden `.expected` sidecars of `tests/alarms/`, the
//! independent validation oracle, and report identities.
//!
//! Failures are counted per operation — a unit analysed, an edit sent, the
//! final report asked of the daemon, a traced pass repeated — and an
//! operation fails at most once however many things were wrong with it, so
//! `failed ÷ attempted` is a share. What was wrong is kept as messages
//! beside the counters.

use crate::workloads;
use sga::pipeline::{self, PipelineError, Project};
use sga::utils::Json;
use std::path::{Path, PathBuf};

/// Operations attempted, how many of them failed, and what was wrong.
#[derive(Debug, Default)]
pub struct Check {
    pub attempted: usize,
    pub failed: usize,
    pub messages: Vec<String>,
}

impl Check {
    /// Counts one operation; it failed if it left any miss.
    pub fn op(&mut self, misses: Vec<String>) {
        self.attempted += 1;
        if !misses.is_empty() {
            self.failed += 1;
            self.messages.extend(misses);
        }
    }

    pub fn absorb(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
    }

    pub fn passed(&self) -> bool {
        self.failed == 0
    }
}

/// The golden corpus, relative to the repository root the harness runs
/// from.
pub const ALARMS_DIR: &str = "tests/alarms";

/// The per-unit objects of a report.
pub fn units_of(report: &Json) -> &[Json] {
    report.get("units").and_then(Json::as_arr).unwrap_or(&[])
}

/// The cache hit rate a report's totals state.
pub fn hit_rate(report: &Json) -> Option<f64> {
    report.get("totals")?.get("hit_rate")?.as_f64()
}

fn str_field<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key).and_then(Json::as_str).unwrap_or("")
}

/// One operation per unit of a `pipeline::run` pass over `expected` units.
/// A unit fails if it did not come out `ok` (degraded, crashed — frontend
/// errors included — invalid, or skipped), if it is missing, or if
/// `extra(i, unit)` names anything else wrong with it. A run error fails
/// every unit of the pass.
pub fn units_pass(
    check: &mut Check,
    pass: &str,
    report: &Result<Json, PipelineError>,
    expected: usize,
    extra: impl Fn(usize, &Json) -> Vec<String>,
) {
    let units = match report {
        Ok(report) => units_of(report),
        Err(e) => {
            check.messages.push(format!("{pass}: pipeline::run: {e}"));
            &[]
        }
    };
    for (i, unit) in units.iter().enumerate() {
        let name = str_field(unit, "name");
        let mut misses = extra(i, unit);
        if str_field(unit, "outcome") != "ok" {
            misses.push(str_field(unit, "outcome").to_string());
        }
        if i >= expected {
            misses.push("not a unit of the corpus".to_string());
        }
        check.op(misses
            .into_iter()
            .map(|m| format!("{pass}: {name}: {m}"))
            .collect());
    }
    for i in units.len()..expected {
        check.op(vec![format!("{pass}: unit {i} is missing from the report")]);
    }
}

/// The compact text of every unit of a report: what a later pass over the
/// same input must reproduce unit by unit. The canonical report's other
/// members are totals derived from these.
pub fn unit_texts(report: &Json) -> Vec<String> {
    units_of(report).iter().map(Json::to_compact).collect()
}

/// An `extra` for [`units_pass`]: unit `i` must read exactly
/// `reference[i]`.
pub fn same_as(reference: &[String]) -> impl Fn(usize, &Json) -> Vec<String> + '_ {
    |i, unit| {
        if reference.get(i).is_some_and(|r| *r == unit.to_compact()) {
            Vec::new()
        } else {
            vec!["differs from the reference pass".to_string()]
        }
    }
}

/// The `<fingerprint> <status>` head of every diagnostic of one report
/// unit, in report order, spelled the way the sidecars spell it.
fn diagnostic_heads(unit: &Json) -> Vec<String> {
    unit.get("diagnostics")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|d| {
            let status = match d.get("discharge") {
                Some(x) if str_field(d, "status") == "discharged" => {
                    format!(
                        "discharged[{}:{}]",
                        str_field(x, "method"),
                        str_field(x, "pack")
                    )
                }
                _ => str_field(d, "status").to_string(),
            };
            format!("{} {status}", str_field(d, "fingerprint"))
        })
        .collect()
}

/// Compares one report unit against its sidecar text, line for line, on
/// fingerprint, status, discharge method and pack. Returns the misses.
pub fn compare_expected(unit: &Json, expected: &str) -> Vec<String> {
    let heads = diagnostic_heads(unit);
    let lines: Vec<&str> = expected.lines().collect();
    let mut misses = Vec::new();
    if heads.len() != lines.len() {
        misses.push(format!(
            "{} diagnostics, sidecar lists {}",
            heads.len(),
            lines.len()
        ));
    }
    for (i, (head, line)) in heads.iter().zip(&lines).enumerate() {
        if !line.starts_with(&format!("{head} ")) {
            misses.push(format!("line {}: got `{head}`, sidecar `{line}`", i + 1));
        }
    }
    misses
}

/// Check (a): the golden corpus through the `batch_flat` configuration
/// must match every sidecar. One operation per file.
pub fn alarms() -> Check {
    let mut check = Check::default();
    let dir = Path::new(ALARMS_DIR);
    let sidecars = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "expected"))
                .count()
        })
        .unwrap_or(0);
    if sidecars == 0 {
        check.op(vec![format!(
            "{ALARMS_DIR}: no sidecars (run from the repository root)"
        )]);
        return check;
    }
    let report = pipeline::run(&Project::Dir(dir.to_path_buf()), &workloads::options(None));
    units_pass(&mut check, ALARMS_DIR, &report, sidecars, |_, unit| {
        let sidecar = dir.join(str_field(unit, "name")).with_extension("expected");
        match std::fs::read_to_string(&sidecar) {
            Ok(expected) => compare_expected(unit, &expected),
            Err(e) => vec![format!("{}: {e}", sidecar.display())],
        }
    });
    check
}

/// Check (b): one `validate: true` pass over a corpus of `units` units —
/// the independent dense engine (Lemma 1), the post-fixpoint re-check, and
/// the Def. 5 side condition — must find every unit valid. One operation
/// per unit.
pub fn validate_pass(corpus: &Path, cache: Option<PathBuf>, units: usize) -> Check {
    let mut options = workloads::options(cache);
    options.validate = true;
    let mut check = Check::default();
    let report = pipeline::run(&Project::Dir(corpus.to_path_buf()), &options);
    units_pass(&mut check, "validate", &report, units, |_, unit| {
        if unit.get("validation").is_some() {
            Vec::new()
        } else {
            vec!["the oracle did not run".to_string()]
        }
    });
    check
}

/// The `serve_edits` identity: the report the daemon gave when asked at the
/// end (compact text) must equal `serve::cold_report` of the corpus as the
/// edits left it. Returns the misses of that one request.
pub fn converged(daemon_report: &Result<String, String>, corpus: &Path) -> Vec<String> {
    let daemon_report = match daemon_report {
        Ok(r) => r,
        Err(e) => return vec![format!("final report unavailable: {e}")],
    };
    match sga::serve::cold_report(corpus, &workloads::options(None)) {
        Ok(cold) if cold.to_compact() == *daemon_report => Vec::new(),
        Ok(_) => {
            vec!["daemon report differs from serve::cold_report of the final corpus".to_string()]
        }
        Err(e) => vec![format!("serve::cold_report: {e}")],
    }
}

/// A report unit's compact text with the `cache` field neutralised, so a
/// warm pass's unit compares equal to the cold fill's that stored its
/// entry.
pub fn text_ignoring_cache(unit: &Json) -> String {
    let mut unit = unit.clone();
    if unit.get("cache").is_some() {
        unit.set("cache", "off");
    }
    unit.to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Json {
        let open = Json::obj()
            .with("status", "open")
            .with("fingerprint", "11f3e01160883b83");
        let discharged = Json::obj()
            .with("status", "discharged")
            .with(
                "discharge",
                Json::obj()
                    .with("method", "path_infeasible")
                    .with("pack", "else@11(n < 0) & then@14(n > 5)")
                    .with("reason", "guard n > 5 never holds"),
            )
            .with("fingerprint", "2ec7a6163b28faf5");
        Json::obj()
            .with("name", "demo.c")
            .with("diagnostics", vec![open, discharged])
    }

    const SIDECAR: &str = "11f3e01160883b83 open line 22: definite division by zero\n\
        2ec7a6163b28faf5 discharged[path_infeasible:else@11(n < 0) & then@14(n > 5)] line 15: \
        possible null dereference\n";

    #[test]
    fn matching_sidecar_passes() {
        assert_eq!(compare_expected(&unit(), SIDECAR), Vec::<String>::new());
    }

    #[test]
    fn altered_sidecar_is_reported_line_by_line() {
        // Wrong discharge method on line 2.
        let altered = SIDECAR.replace("path_infeasible", "octagon");
        let misses = compare_expected(&unit(), &altered);
        assert_eq!(misses.len(), 1);
        assert!(misses[0].contains("line 2"), "{misses:?}");
        // A status flip on line 1, and a missing line.
        let misses = compare_expected(&unit(), "11f3e01160883b83 discharged[octagon:{x}] l\n");
        assert_eq!(misses.len(), 2, "{misses:?}");
        // A different fingerprint.
        let misses = compare_expected(&unit(), &SIDECAR.replace("11f3", "22f3"));
        assert_eq!(misses.len(), 1);
    }
}
