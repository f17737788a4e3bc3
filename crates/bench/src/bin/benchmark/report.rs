//! Metric definitions (name, unit, direction, bound) and how results are
//! printed: one named line per metric with unit and sample count, then one
//! JSON object on the last line.

use crate::measure::RunResult;
use crate::stats;
use sga::utils::Json;
use std::collections::BTreeMap;

/// An end-to-end metric: reported per workload, lower is better, `bound`
/// is the share by which the median may worsen before it is a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

/// The metrics `BENCHMARK.json` lists: every workload yields every one and
/// none is ever 0. The times are host-normalised (see [`crate::probe`]).
/// Every bound, here and in [`PRINTED`], is at least three times the widest
/// spread the metric showed over ten seeds on an ordinary hour of the first
/// host and lies above the widest it showed under a disturbance made on
/// purpose, in steps of 0.05 up to the contract's cap of 0.25 (see the
/// README's "Steadiness").
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "pass_p50_ms",
        unit: "ms",
        bound: 0.20,
    },
    EndToEnd {
        name: "pass_heavy_p50_ms",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.20,
    },
];

/// Printed beside them and gated by `repeat` only: `pass_p90_ms` exists
/// only from 100 samples up, and `BENCHMARK.json` wants every listed metric
/// from every workload. (`failed_share`, the fifth, travels as the result's
/// `attempted` / `failed` counts.)
pub const PRINTED: [EndToEnd; 1] = [EndToEnd {
    name: "pass_p90_ms",
    unit: "ms",
    bound: 0.25,
}];

/// A per-layer metric of the traced run.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn ms(name: &'static str) -> Layer {
    Layer {
        name,
        unit: "ms",
        better: "lower",
    }
}

const fn count(name: &'static str, better: &'static str) -> Layer {
    Layer {
        name,
        unit: "count",
        better,
    }
}

const fn ratio(name: &'static str, better: &'static str) -> Layer {
    Layer {
        name,
        unit: "ratio",
        better,
    }
}

const fn bytes(name: &'static str) -> Layer {
    Layer {
        name,
        unit: "bytes",
        better: "lower",
    }
}

const fn rate(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: "higher",
    }
}

/// The ledger's rows, in print order.
pub const PER_LAYER: &[Layer] = &[
    ms("cfront.lex_ms"),
    ms("cfront.parse_ms"),
    ms("cfront.lower_ms"),
    count("cfront.tokens", "lower"),
    count("cfront.ir_points", "lower"),
    rate("cfront.lines_per_s", "1/s"),
    ms("core.preanalysis_ms"),
    count("core.preanalysis.allocs", "lower"),
    ms("core.icfg_ms"),
    ms("core.defuse_ms"),
    count("core.defuse.locs", "lower"),
    ratio("core.defuse.avg_defs", "lower"),
    ratio("core.defuse.avg_uses", "lower"),
    ms("core.depgen_ms"),
    count("core.depgen.edges_raw", "lower"),
    count("core.depgen.edges_final", "lower"),
    ratio("core.depgen.bypass_ratio", "lower"),
    ms("core.depstore.csr_build_ms"),
    ms("core.sparse.solve_ms"),
    count("core.sparse.iterations", "lower"),
    count("core.sparse.narrowing_rounds", "lower"),
    rate("core.sparse.evals_per_s", "1/s"),
    count("core.sparse.allocs", "lower"),
    bytes("core.sparse.alloc_bytes"),
    ms("core.checker_ms"),
    count("core.checker.alarms", "lower"),
    ms("core.triage.octagon_ms"),
    ms("core.triage.path_ms"),
    count("core.triage.candidates", "lower"),
    count("core.triage.discharged_octagon", "higher"),
    count("core.triage.discharged_path", "higher"),
    ratio("core.triage.discharge_ratio", "higher"),
    count("core.octagon.packs", "lower"),
    count("core.octagon.iterations", "lower"),
    count("core.octagon.allocs", "lower"),
    bytes("core.octagon.alloc_bytes"),
    ms("core.validate_ms"),
    ms("diag.render_json_ms"),
    ms("diag.sarif_ms"),
    count("diag.diagnostics", "lower"),
    ms("pipeline.run_ms"),
    ms("pipeline.key_ms"),
    ms("pipeline.assemble_report_ms"),
    ms("pipeline.cache.load_ms"),
    ms("pipeline.cache.store_ms"),
    bytes("pipeline.cache.entry_bytes"),
    rate("pipeline.cache.load_mb_per_s", "MB/s"),
    ratio("pipeline.cache.hit_ratio", "higher"),
    ms("pipeline.journal.record_ms"),
    ms("pipeline.journal.load_ms"),
    ms("pipeline.worker.roundtrip_ms"),
    count("pipeline.worker.retried", "lower"),
    count("pipeline.worker.killed", "lower"),
    ms("serve.engine.cold_start_ms"),
    ms("serve.engine.round_body_ms"),
    ms("serve.engine.round_iface_ms"),
    count("serve.engine.invalidated_body", "lower"),
    count("serve.engine.invalidated_iface", "lower"),
    ratio("serve.engine.spared_ratio", "higher"),
    ms("serve.engine.report_ms"),
    ms("serve.journal.record_ms"),
    ms("serve.server.ack_ms"),
    ms("serve.server.event_lag_ms"),
    count("serve.server.shed", "lower"),
    count("serve.server.evicted_slow", "lower"),
    ratio("trace.overhead_share", "lower"),
    ratio("trace.staged_coverage", "higher"),
];

/// The traced run's values: metric name → (value, samples behind it).
/// Layers a workload does not exercise stay absent and print as 0.
#[derive(Debug, Default, PartialEq)]
pub struct Ledger(pub BTreeMap<&'static str, (f64, usize)>);

impl Ledger {
    /// Records a value under a metric declared in [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let declared = PER_LAYER
            .iter()
            .find(|l| l.name == name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"));
        self.0.insert(declared.name, (value, samples));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.0)
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj().with("value", value).with("unit", unit)
}

/// The last stdout line of a run.
fn result_line(attempted: usize, failed: usize, metrics: Json) {
    let line = Json::obj()
        .with("correct", failed == 0)
        .with("attempted", attempted.max(1))
        .with("failed", failed)
        .with("metrics", metrics);
    println!("{}", line.to_compact());
}

fn print_messages(messages: &[String]) {
    for m in messages.iter().take(20) {
        println!("  FAILED {m}");
    }
    if messages.len() > 20 {
        println!("  ... and {} more", messages.len() - 20);
    }
}

/// One metric of one run: the value, and the same statistic taken over
/// each measuring process alone.
pub struct Reading {
    pub value: f64,
    pub per_process: Vec<f64>,
    /// How the value was taken, and from how many samples.
    pub how: String,
}

impl Reading {
    /// How far the processes lie apart, as a share of the lowest: what the
    /// host did to this run. Nothing can be said from one process.
    pub fn spread(&self) -> f64 {
        let lo = self
            .per_process
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let hi = self.per_process.iter().copied().fold(0.0, f64::max);
        if self.per_process.len() < 2 || lo <= 0.0 {
            0.0
        } else {
            (hi - lo) / lo
        }
    }
}

/// A nearest-rank percentile of the pooled samples of all processes, and
/// of each process's own samples.
fn pooled_percentile(samples: Vec<Vec<f64>>, p: f64) -> Reading {
    let pooled: Vec<f64> = samples.iter().flat_map(|s| s.iter().copied()).collect();
    Reading {
        value: if pooled.is_empty() {
            0.0
        } else {
            stats::percentile(&pooled, p)
        },
        per_process: samples
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| stats::percentile(s, p))
            .collect(),
        how: format!("pooled p{p:.0}, n={}", pooled.len()),
    }
}

/// Metric `name` of an untraced result; `None` for a `pass_p90_ms` with
/// fewer than 100 samples behind it.
pub fn reading(r: &RunResult, name: &str) -> Option<Reading> {
    let of = |f: fn(&crate::measure::ProcessSample) -> f64| -> Vec<f64> {
        r.processes.iter().map(f).collect()
    };
    let select = |heavy_only: bool| -> Vec<Vec<f64>> {
        r.processes
            .iter()
            .map(|p| {
                p.passes
                    .iter()
                    .filter(|x| x.heavy || !heavy_only)
                    .map(|x| x.ms)
                    .collect()
            })
            .collect()
    };
    let passes = || select(false);
    Some(match name {
        "setup_s" => {
            let per_process = of(|p| p.setup_s);
            Reading {
                value: stats::median(&per_process),
                how: format!("median of {} set-ups", per_process.len()),
                per_process,
            }
        }
        "pass_p50_ms" => pooled_percentile(passes(), 50.0),
        "pass_heavy_p50_ms" => pooled_percentile(select(true), 50.0),
        // One process has too few samples for a p90 of its own (on
        // `serve_edits` it would fall in the body or the interface mode by
        // chance), so what the host did is read off the processes' medians.
        "pass_p90_ms" => Reading {
            value: stats::p90(&passes().concat())?,
            how: format!("pooled p90, n={}", r.pooled_passes().len()),
            per_process: pooled_percentile(passes(), 50.0).per_process,
        },
        "peak_rss_mb" => {
            let per_process = of(|p| p.peak_rss_mb);
            Reading {
                value: stats::median(&per_process),
                how: format!(
                    "median VmHWM of {} measuring processes at the end of timing",
                    per_process.len()
                ),
                per_process,
            }
        }
        other => unreachable!("undeclared end-to-end metric {other}"),
    })
}

/// What `repeat` says of one metric measured by two runs of the same code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The runs agree within the bound, and the host held still for both.
    Pass,
    /// The host held still and the runs disagree.
    Fail,
    /// The processes of one run lie further apart than the bound: the host
    /// moved, and neither agreement nor disagreement means anything.
    Unresolved,
}

/// Two-sided: the larger value may exceed the smaller by `bound` at most.
pub fn verdict(a: &Reading, b: &Reading, bound: f64) -> Verdict {
    if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else if (a.value - b.value).abs() <= bound * a.value.min(b.value) {
        Verdict::Pass
    } else {
        Verdict::Fail
    }
}

fn per_process_text(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.4}"))
        .collect::<Vec<_>>()
        .join(" / ")
}

/// Prints an untraced run: every end-to-end metric by name with unit and
/// sample count, then the result line.
pub fn print_untraced(workload: &str, seed: u64, r: &RunResult) {
    let pooled = r.pooled_passes();
    let n = pooled.len();
    let timed_s = pooled.iter().map(|p| p.wall_ms).sum::<f64>() / 1e3;
    println!("workload {workload}  seed {seed}  {n} timed passes in {timed_s:.1} s");
    // Times below are wall times ÷ the host's speed; these are the wall
    // times and the speed they were taken at.
    let probes: Vec<f64> = r
        .processes
        .iter()
        .flat_map(|p| p.probe_ms.iter().copied())
        .collect();
    let wall: Vec<f64> = pooled.iter().map(|p| p.wall_ms).collect();
    let setups: Vec<f64> = r.processes.iter().map(|p| p.setup_wall_s).collect();
    println!(
        "  host: median probe {:.2} ms of {} (nominal {} ms); wall time of the median pass \
         {:.4} ms, of the median set-up {:.4} s",
        stats::median(&probes),
        probes.len(),
        crate::probe::NOMINAL_MS,
        stats::median(&wall),
        stats::median(&setups)
    );
    let mut metrics = Json::obj();
    for (m, listed) in END_TO_END
        .iter()
        .map(|m| (m, true))
        .chain(PRINTED.iter().map(|m| (m, false)))
    {
        match reading(r, m.name) {
            Some(x) => {
                println!(
                    "  {:<18}{:>14.4} {:<4} ({}; per process {})",
                    m.name,
                    x.value,
                    m.unit,
                    x.how,
                    if m.name == "pass_p90_ms" {
                        "as pass_p50_ms".to_string()
                    } else {
                        per_process_text(&x.per_process)
                    }
                );
                if listed {
                    metrics.set(m.name, metric_json(x.value, m.unit));
                }
            }
            None => println!(
                "  {:<18}{:>14} {:<4} (n={n} < {})",
                m.name,
                "withheld",
                m.unit,
                stats::P90_MIN_SAMPLES
            ),
        }
    }
    let (failed, attempted) = (r.check.failed, r.check.attempted.max(1));
    println!(
        "  {:<18}{:>14.6} {:<4} ({failed} of {attempted} operations)",
        "failed_share",
        failed as f64 / attempted as f64,
        ""
    );
    print_messages(&r.check.messages);
    result_line(attempted, failed, metrics);
}

/// Prints a traced run: every per-layer metric by name with unit and
/// sample count, then the result line.
pub fn print_traced(workload: &str, seed: u64, ledger: &Ledger, check: &crate::check::Check) {
    println!("workload {workload}  seed {seed}  traced");
    let mut metrics = Json::obj();
    for l in PER_LAYER {
        let (v, n) = ledger.0.get(l.name).copied().unwrap_or((0.0, 0));
        println!("  {:<34}{:>16.4} {:<6} (n={n})", l.name, v, l.unit);
        metrics.set(l.name, metric_json(v, l.unit));
    }
    print_messages(&check.messages);
    result_line(check.attempted, check.failed, metrics);
}

/// The text of `BENCHMARK.json`: the command, the workloads with their
/// reasons, and every metric definition above, in the shape the benchmark
/// contract fixes.
pub fn describe(run_seconds: f64) -> String {
    let strings = |items: &[&str]| items.iter().map(|s| Json::from(*s)).collect::<Vec<_>>();
    let workloads: Vec<Json> = crate::workloads::ALL
        .iter()
        .map(|w| Json::obj().with("name", w.name()).with("why", w.why()))
        .collect();
    let end_to_end: Vec<Json> = END_TO_END
        .iter()
        .map(|m| {
            Json::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", "lower")
                .with("bound", m.bound)
        })
        .collect();
    let per_layer: Vec<Json> = PER_LAYER
        .iter()
        .map(|l| {
            Json::obj()
                .with("name", l.name)
                .with("unit", l.unit)
                .with("better", l.better)
        })
        .collect();
    let j = Json::obj()
        .with(
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "-p",
                "sga-bench",
                "--bin",
                "benchmark",
                "--",
                "run",
            ]),
        )
        .with("paths", strings(&["crates/bench/src/bin/benchmark"]))
        .with("run_seconds", run_seconds as usize)
        .with("workloads", workloads)
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer);
    j.to_pretty() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` sits at the repository root, two levels above
    /// `sga-bench`.
    #[test]
    fn benchmark_json_is_what_describe_prints() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let text = std::fs::read_to_string(root.join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        assert_eq!(
            text,
            describe(crate::DEFAULT_SECONDS),
            "regenerate with `benchmark describe > BENCHMARK.json`"
        );
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|l| l.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(PER_LAYER.len() <= 128);
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        // The contract caps a bound at 0.25 and gives set-up the largest.
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound <= 0.25 && m.bound <= END_TO_END[0].bound));
    }

    fn reading(value: f64, per_process: &[f64]) -> Reading {
        Reading {
            value,
            per_process: per_process.to_vec(),
            how: String::new(),
        }
    }

    #[test]
    fn verdict_is_two_sided_and_withheld_when_the_host_moved() {
        let calm = |v: f64| reading(v, &[v, v * 1.01, v * 1.02]);
        assert_eq!(verdict(&calm(100.0), &calm(109.0), 0.10), Verdict::Pass);
        assert_eq!(verdict(&calm(109.0), &calm(100.0), 0.10), Verdict::Pass);
        assert_eq!(verdict(&calm(100.0), &calm(112.0), 0.10), Verdict::Fail);
        assert_eq!(
            verdict(&calm(112.0), &calm(100.0), 0.10),
            Verdict::Fail,
            "a faster second set disagrees just as much"
        );
        // One process of a run 30 % off the others: no verdict, even though
        // the values agree.
        let moved = reading(100.0, &[100.0, 104.0, 130.0]);
        assert_eq!(verdict(&moved, &calm(101.0), 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&calm(140.0), &moved, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn pass_percentiles_pool_the_processes_and_keep_each_ones_own() {
        let a: Vec<f64> = (1..=10).map(f64::from).collect();
        let b: Vec<f64> = (11..=20).map(f64::from).collect();
        let r = pooled_percentile(vec![a, b, Vec::new()], 10.0);
        // Nearest rank: ceil(0.1 * 20) = 2nd smallest of the pool, the
        // smallest of each process.
        assert_eq!(r.value, 2.0);
        assert_eq!(r.per_process, vec![1.0, 11.0]);
        assert_eq!(r.spread(), 10.0);
    }
}
