//! Where an analysis' time went, and its peak memory.
//!
//! The paper's Tables 2–3 split an analyzer's time into a dependency
//! phase ("Dep includes times for pre-analysis and data dependency
//! generation") and a fixpoint phase (`Fix`). [`StageTimes`] is that
//! accounting as one plain value: one wall time per [`Stage`], the stages
//! disjoint. A run charges its own record and hands it back; whoever
//! reports it — the batch report's `timing_ms`, `sga F --stats`, the
//! tables — reads the same record. [`peak_rss_bytes`] reads the process
//! high-water mark from `/proc/self/status` (Linux), which is the same
//! notion of "peak memory consumption" the paper reports.

use crate::Json;
use std::time::{Duration, Instant};

/// One stage of a unit's analysis, in the order a run passes through them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Reading the project's sources.
    Load,
    /// The C frontend: lexing, parsing and lowering to the IR.
    Parse,
    /// The pre-analysis, the ICFG build included.
    Pre,
    /// The `D̂`/`Û` tables (and the octagon's pack-level ones).
    Defuse,
    /// Dependency generation alone: reaching definitions and the bypass.
    Dep,
    /// The fixpoint.
    Fix,
    /// The checkers (and the values fingerprint, in the batch driver).
    Check,
    /// Alarm triage: the octagon and path layers.
    Triage,
    /// The validation oracle.
    Validate,
}

/// The stages' keys in the report's `timing_ms` and in `--stats`, in
/// [`Stage`] order.
const NAMES: [&str; 9] = [
    "load", "parse", "pre", "defuse", "dep", "fix", "check", "triage", "validate",
];

/// Wall time per [`Stage`]: a stage is absent until something charges it
/// (a zero charge included), so a record says which stages ran as well as
/// how long they took.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimes([Option<Duration>; NAMES.len()]);

impl StageTimes {
    /// Charges `elapsed` to `stage`.
    pub fn add(&mut self, stage: Stage, elapsed: Duration) {
        self.charge(stage as usize, elapsed);
    }

    fn charge(&mut self, i: usize, elapsed: Duration) {
        self.0[i] = Some(self.0[i].unwrap_or_default() + elapsed);
    }

    /// Runs `f`, charging its wall time to `stage`.
    pub fn time<R>(&mut self, stage: Stage, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(stage, start.elapsed());
        out
    }

    /// Charges every stage `other` charged, as `other` charged it.
    pub fn merge(&mut self, other: &StageTimes) {
        for (i, d) in other.0.iter().enumerate() {
            if let Some(d) = *d {
                self.charge(i, d);
            }
        }
    }

    /// The time charged to `stage`, zero if nothing charged it.
    pub fn get(&self, stage: Stage) -> Duration {
        self.0[stage as usize].unwrap_or_default()
    }

    /// The charged stages by name, with their times, in [`Stage`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Duration)> + '_ {
        NAMES
            .into_iter()
            .zip(self.0)
            .filter_map(|(name, d)| Some((name, d?)))
    }

    /// The record as the report's `timing_ms` holds it: each charged stage
    /// by name, in milliseconds, in stage order.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        for (name, d) in self.iter() {
            j.set(name, d.as_nanos() as f64 / 1e6);
        }
        j
    }

    /// Reads back what [`StageTimes::to_json`] wrote, to the nanosecond
    /// (`None` when a stage's entry is not a number); other keys are
    /// ignored.
    pub fn from_json(j: &Json) -> Option<StageTimes> {
        let mut times = StageTimes::default();
        for (i, name) in NAMES.into_iter().enumerate() {
            if let Some(ms) = j.get(name) {
                times.charge(i, Duration::from_nanos((ms.as_f64()? * 1e6).round() as u64));
            }
        }
        Some(times)
    }
}

/// Peak resident-set size of this process in bytes, if the platform exposes
/// it (`VmHWM` in `/proc/self/status`); `None` elsewhere.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_charges_a_nonzero_stage() {
        let mut times = StageTimes::default();
        let r = times.time(Stage::Fix, || {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(r, 7);
        assert!(times.get(Stage::Fix) >= Duration::from_millis(1));
        assert_eq!(times.get(Stage::Dep), Duration::ZERO);
    }

    /// Only charged stages are listed, a zero charge included, in stage
    /// order whatever the order of the charges; a merge adds stage by stage.
    #[test]
    fn iter_lists_charged_stages_in_stage_order_and_merge_adds() {
        let mut a = StageTimes::default();
        a.add(Stage::Triage, Duration::from_micros(5));
        a.add(Stage::Parse, Duration::ZERO);
        a.add(Stage::Triage, Duration::from_micros(2));
        let names: Vec<&str> = a.iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["parse", "triage"]);

        let mut b = StageTimes::default();
        b.add(Stage::Load, Duration::from_micros(1));
        b.add(Stage::Triage, Duration::from_micros(3));
        b.merge(&a);
        let merged: Vec<(&str, Duration)> = b.iter().collect();
        let want = [("load", 1), ("parse", 0), ("triage", 10)];
        assert_eq!(merged, want.map(|(n, us)| (n, Duration::from_micros(us))));
    }

    #[test]
    fn rss_available_on_linux() {
        if cfg!(target_os = "linux") {
            let peak = peak_rss_bytes().expect("VmHWM should parse on Linux");
            assert!(peak > 0);
        }
    }
}
