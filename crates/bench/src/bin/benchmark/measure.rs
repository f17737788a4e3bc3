//! The untraced run: end-to-end numbers from the product's library entry
//! points only (`pipeline::run`, `serve::serve` + `serve::client`).
//!
//! One run sets a workload up [`SETUPS`] times. Each set-up is a
//! `__prepare` child (inputs from the seed, corpus on disk, the cold cache
//! fill of `warm_rerun`) followed by a `__measure` child (engine cold
//! start, subscribe, one untimed warm-up pass), which then times passes for
//! its share of `--seconds`. Each child's `VmHWM` is the peak of a process
//! that did what a user's process does — not of the cold fill that ran in
//! another process, nor of the validation oracle, which runs in the parent
//! afterwards.
//!
//! The hosts the benchmark runs on slow the same pass by 30–100 % for
//! seconds to minutes at a time, so every measuring process runs the
//! host-speed probe of [`crate::probe`] before its first timed pass and
//! after every three quarters of a second of passes, and a pass's time is its wall time
//! divided by the speed the two probes around it found. The set-up is
//! treated alike, between a probe of the parent's and the child's first.
//! The pass-time metrics are medians of these times over a run's pooled
//! passes; the wall times are printed beside them. Every statistic is also
//! taken over each process alone; `repeat` calls a comparison unresolved
//! when those lie further apart than the metric's bound.

use crate::check::{self, Check};
use crate::probe;
use crate::workloads::{self, EditKind, EditScript, Layout, Workload};
use sga::pipeline::{self, Project};
use sga::serve::{self, client, Engine, ServerConfig};
use sga::utils::Json;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Set-ups, and measuring processes, per run; `setup_s` and `peak_rss_mb`
/// are their medians.
pub const SETUPS: usize = 3;
/// Timed passes each measuring process makes at least, however short
/// `--seconds` is.
const MIN_PASSES: usize = 2;
/// An edit with no ack or no diff event within this long has failed.
const EDIT_DEADLINE: Duration = Duration::from_secs(10);
/// Scratch space, relative to the directory the harness runs from (kept
/// relative so the daemon's socket path stays short).
pub const WORK_ROOT: &str = ".bench_work";

pub const PREPARE_ARG: &str = "__prepare";
pub const MEASURE_ARG: &str = "__measure";

/// One timed pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pass {
    /// Wall time.
    pub wall_ms: f64,
    /// Wall time ÷ the host's speed while it ran (see [`crate::probe`]).
    pub ms: f64,
    /// Of the workload's heavy kind: on `serve_edits` an interface-edit
    /// round; elsewhere every pass is of one kind and heavy.
    pub heavy: bool,
}

/// One set-up and the measuring process that followed it.
pub struct ProcessSample {
    /// `__prepare` child + everything the `__measure` child did before
    /// timing, wall time.
    pub setup_wall_s: f64,
    /// The same ÷ the host's speed, from the probes right before and right
    /// after the set-up.
    pub setup_s: f64,
    /// Every timed pass.
    pub passes: Vec<Pass>,
    /// Wall time of every probe: one before the first pass, one after each
    /// segment of passes.
    pub probe_ms: Vec<f64>,
    /// `VmHWM` when timing ended.
    pub peak_rss_mb: f64,
}

/// What one untraced run of one workload measured.
pub struct RunResult {
    pub processes: Vec<ProcessSample>,
    pub check: Check,
}

impl RunResult {
    /// Timed passes of all measuring processes, pooled.
    pub fn pooled_passes(&self) -> Vec<Pass> {
        self.processes
            .iter()
            .flat_map(|p| p.passes.iter().copied())
            .collect()
    }
}

// ---- set-up, first half: inputs on disk ----------------------------------

/// Generates the workload's inputs from `seed` into `work`; for
/// `warm_rerun` also fills the cache cold and keeps that run's report.
pub fn prepare(w: Workload, seed: u64, work: &Path) -> Result<(), String> {
    let layout = Layout::in_dir(work);
    std::fs::create_dir_all(&layout.corpus).map_err(|e| e.to_string())?;
    for (name, text) in w.sources(seed) {
        std::fs::write(layout.corpus.join(name), text).map_err(|e| e.to_string())?;
    }
    if w == Workload::WarmRerun {
        let options = workloads::options(Some(layout.cache));
        let cold =
            pipeline::run(&Project::Dir(layout.corpus), &options).map_err(|e| e.to_string())?;
        std::fs::write(&layout.cold_report, cold.to_compact()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

// ---- set-up, second half, and the timed passes ---------------------------

/// What a `__measure` child hands back on its last stdout line.
struct Measured {
    /// Everything the child did before timing, wall time.
    warm_s: f64,
    timing: Timing,
    peak_rss_mb: f64,
    check: Check,
}

fn numbers(values: impl Iterator<Item = f64>) -> Vec<Json> {
    values.map(Json::from).collect()
}

fn read_numbers(j: &Json) -> Option<Vec<f64>> {
    Some(j.as_arr()?.iter().filter_map(Json::as_f64).collect())
}

/// The timed phase of a measuring process: passes in segments of about
/// [`SEGMENT_MS`], a probe before the first segment and after each.
#[derive(Default)]
struct Timing {
    probe_ms: Vec<f64>,
    /// `(wall ms, heavy, segment)`; segment `k` lies between probes `k` and
    /// `k + 1`.
    passes: Vec<(f64, bool, usize)>,
    segment_ms: f64,
}

/// Passes are timed for about this long between two probes: a batch pass
/// has a probe on either side, a `warm_rerun` pass shares its two with a
/// dozen others.
const SEGMENT_MS: f64 = 750.0;

impl Timing {
    fn start() -> Timing {
        Timing {
            probe_ms: vec![probe::run_ms()],
            ..Timing::default()
        }
    }

    fn record(&mut self, wall_ms: f64, heavy: bool) {
        self.passes.push((wall_ms, heavy, self.probe_ms.len() - 1));
        self.segment_ms += wall_ms;
        if self.segment_ms >= SEGMENT_MS {
            self.close_segment();
        }
    }

    fn close_segment(&mut self) {
        if self.segment_ms > 0.0 {
            self.probe_ms.push(probe::run_ms());
            self.segment_ms = 0.0;
        }
    }

    /// Every pass with its wall time divided by the host's speed: the mean
    /// of the probes on either side of its segment over the probe's nominal
    /// time.
    fn passes(&self) -> Vec<Pass> {
        self.passes
            .iter()
            .map(|&(wall_ms, heavy, k)| {
                let around = (self.probe_ms[k] + self.probe_ms[k + 1]) / 2.0;
                Pass {
                    wall_ms,
                    ms: wall_ms * probe::NOMINAL_MS / around,
                    heavy,
                }
            })
            .collect()
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .with("probe_ms", numbers(self.probe_ms.iter().copied()))
            .with("wall_ms", numbers(self.passes.iter().map(|p| p.0)))
            .with(
                "heavy",
                self.passes
                    .iter()
                    .map(|p| Json::from(p.1))
                    .collect::<Vec<_>>(),
            )
            .with(
                "segment",
                self.passes
                    .iter()
                    .map(|p| Json::from(p.2))
                    .collect::<Vec<_>>(),
            )
    }

    fn from_json(j: &Json) -> Option<Timing> {
        let wall = read_numbers(j.get("wall_ms")?)?;
        let heavy = j.get("heavy")?.as_arr()?;
        let segment = j.get("segment")?.as_arr()?;
        let probe_ms = read_numbers(j.get("probe_ms")?)?;
        let mut passes = Vec::new();
        for (i, &w) in wall.iter().enumerate() {
            let k = segment.get(i)?.as_u64()? as usize;
            if k + 1 >= probe_ms.len() {
                return None;
            }
            passes.push((w, heavy.get(i)?.as_bool()?, k));
        }
        Some(Timing {
            probe_ms,
            passes,
            segment_ms: 0.0,
        })
    }
}

impl Measured {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("warm_s", self.warm_s)
            .with("timing", self.timing.to_json())
            .with("peak_rss_mb", self.peak_rss_mb)
            .with("attempted", self.check.attempted)
            .with("failed", self.check.failed)
            .with(
                "messages",
                self.check
                    .messages
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect::<Vec<_>>(),
            )
    }

    fn from_json(j: &Json) -> Option<Measured> {
        Some(Measured {
            warm_s: j.get("warm_s")?.as_f64()?,
            timing: Timing::from_json(j.get("timing")?)?,
            peak_rss_mb: j.get("peak_rss_mb")?.as_f64()?,
            check: Check {
                attempted: j.get("attempted")?.as_u64()? as usize,
                failed: j.get("failed")?.as_u64()? as usize,
                messages: j
                    .get("messages")?
                    .as_arr()?
                    .iter()
                    .filter_map(|f| f.as_str().map(str::to_string))
                    .collect(),
            },
        })
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn peak_rss_mb() -> f64 {
    sga::utils::stats::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

/// Whether the timed phase goes on: until [`MIN_PASSES`] samples exist,
/// then for as long as a pass like the last one still fits into `seconds`.
fn keep_going(started: Instant, seconds: f64, timing: &Timing) -> bool {
    let next_ms = timing.passes.last().map_or(0.0, |p| p.0);
    timing.passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() + next_ms / 1e3 < seconds
}

fn measure_batch(w: Workload, seconds: f64, work: &Path) -> Measured {
    let t0 = Instant::now();
    let layout = Layout::in_dir(work);
    let options = workloads::options((w == Workload::WarmRerun).then_some(layout.cache));
    let project = Project::Dir(layout.corpus);
    let units = w.units();
    let mut check = Check::default();

    // Untimed warm-up pass; its units are the reference every timed pass
    // must reproduce byte for byte. On `warm_rerun` each of them must be a
    // cache hit and equal the cold fill's unit.
    let warm = pipeline::run(&project, &options);
    let cold: Option<Vec<String>> = (w == Workload::WarmRerun).then(|| {
        std::fs::read_to_string(&layout.cold_report)
            .ok()
            .and_then(|t| Json::parse(&t).ok())
            .map(|c| {
                check::units_of(&c)
                    .iter()
                    .map(check::text_ignoring_cache)
                    .collect()
            })
            .unwrap_or_default()
    });
    check::units_pass(&mut check, "warm-up", &warm, units, |i, unit| {
        let Some(cold) = &cold else {
            return Vec::new();
        };
        let mut misses = Vec::new();
        if unit.get("cache").and_then(Json::as_str) != Some("hit") {
            misses.push("not a cache hit".to_string());
        }
        if cold.get(i) != Some(&check::text_ignoring_cache(unit)) {
            misses.push("differs from the cold fill's unit".to_string());
        }
        misses
    });
    let reference = warm.as_ref().map(check::unit_texts).unwrap_or_default();
    drop(warm);
    let warm_s = t0.elapsed().as_secs_f64();

    let mut timing = Timing::start();
    let started = Instant::now();
    while keep_going(started, seconds, &timing) {
        let t = Instant::now();
        let report = pipeline::run(&project, &options);
        timing.record(ms_since(t), true);
        let pass = format!("pass {}", timing.passes.len());
        check::units_pass(
            &mut check,
            &pass,
            &report,
            units,
            check::same_as(&reference),
        );
    }
    timing.close_segment();
    Measured {
        warm_s,
        timing,
        peak_rss_mb: peak_rss_mb(),
        check,
    }
}

/// The subscribed client of `serve_edits`: one connection that receives
/// diff events, plus one short request connection per edit (what
/// `serve::client` does).
struct EditClient {
    addr: String,
    events: BufReader<client::Conn>,
}

impl EditClient {
    fn subscribe(addr: &str) -> std::io::Result<EditClient> {
        let conn = client::Conn::connect_timeout(addr, Some(EDIT_DEADLINE))?;
        let mut events = BufReader::new(conn);
        events.get_mut().write_all(b"{\"cmd\":\"subscribe\"}\n")?;
        events.get_mut().flush()?;
        let mut ack = String::new();
        events.read_line(&mut ack)?;
        if !ack.contains("subscribed") {
            return Err(std::io::Error::other(format!("bad subscribe ack: {ack}")));
        }
        Ok(EditClient {
            addr: addr.to_string(),
            events,
        })
    }

    /// Sends one edit and waits for its round's diff event. Returns
    /// `(ack ms, round ms)`, or what went wrong.
    fn round(&mut self, edit: &workloads::Edit) -> Result<(f64, f64), String> {
        let t = Instant::now();
        let reply = client::edit_t(&self.addr, &edit.unit, &edit.source, Some(EDIT_DEADLINE))
            .map_err(|e| format!("edit {}: {e}", edit.unit))?;
        let ack_ms = ms_since(t);
        let ok = Json::parse(&reply)
            .ok()
            .and_then(|j| j.get("ok").and_then(Json::as_bool));
        if ok != Some(true) {
            return Err(format!("edit {} refused: {reply}", edit.unit));
        }
        let mut line = String::new();
        self.events
            .read_line(&mut line)
            .map_err(|e| format!("edit {}: no diff event: {e}", edit.unit))?;
        let round_ms = ms_since(t);
        let event = Json::parse(line.trim_end()).map_err(|e| format!("bad event: {e}"))?;
        let names = |key: &str| -> Vec<String> {
            event
                .get(key)
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|n| n.as_str().map(str::to_string))
                .collect()
        };
        if event.get("event").and_then(Json::as_str) != Some("diff")
            || names("edited") != [edit.unit.clone()]
        {
            return Err(format!("edit {}: unexpected event {line}", edit.unit));
        }
        let invalidated = names("invalidated").len();
        if invalidated != edit.kind.expected_invalidated() {
            return Err(format!(
                "{:?} edit of {} re-analysed {invalidated} units, expected {}",
                edit.kind,
                edit.unit,
                edit.kind.expected_invalidated()
            ));
        }
        Ok((ack_ms, round_ms))
    }
}

/// A running in-process daemon over a prepared corpus, with its subscribed
/// client and the seeded script. Shared with the traced run.
pub struct ServeSession {
    handle: serve::ServerHandle,
    client: EditClient,
    pub script: EditScript,
}

impl ServeSession {
    /// Engine cold start, listen, subscribe, and one untimed warm-up edit.
    pub fn start(seed: u64, stream: u64, work: &Path) -> Result<ServeSession, String> {
        let layout = Layout::in_dir(work);
        let options = workloads::options(None);
        let engine = Engine::new(&layout.corpus, &options).map_err(|e| e.to_string())?;
        let sock = work.join("d.sock");
        let config = ServerConfig {
            unix: Some(sock.clone()),
            ..ServerConfig::default()
        };
        let handle = serve::serve(engine, &config).map_err(|e| e.to_string())?;
        let client = EditClient::subscribe(&sock.to_string_lossy()).map_err(|e| e.to_string())?;
        let mut session = ServeSession {
            handle,
            client,
            script: EditScript::new(seed, stream),
        };
        let warm_up = session.script.warm_up();
        session.client.round(&warm_up)?;
        Ok(session)
    }

    /// Sends the script's next edit; `(kind, ack ms, round ms)`.
    pub fn next_round(&mut self) -> Result<(EditKind, f64, f64), String> {
        let edit = self.script.next().expect("the script is endless");
        let (ack_ms, round_ms) = self.client.round(&edit)?;
        Ok((edit.kind, ack_ms, round_ms))
    }

    /// `(shed, evicted_slow)` so far.
    pub fn server_counters(&self) -> (usize, usize) {
        let stats = self.handle.stats();
        (stats.shed(), stats.evicted_slow())
    }

    /// The daemon's accumulated report (compact).
    pub fn final_report(&self) -> Result<String, String> {
        client::report_t(&self.client.addr, Some(EDIT_DEADLINE)).map_err(|e| e.to_string())
    }

    /// Stops the daemon and waits for its engine thread.
    pub fn stop(self) {
        let _ = client::shutdown_t(&self.client.addr, Some(EDIT_DEADLINE));
        drop(self.client);
        self.handle.wait();
    }
}

fn measure_serve(seed: u64, stream: u64, seconds: f64, work: &Path) -> Measured {
    let t0 = Instant::now();
    let mut check = Check::default();
    let mut session = match ServeSession::start(seed, stream, work) {
        Ok(s) => s,
        Err(e) => {
            check.op(vec![format!("daemon start: {e}")]);
            return Measured {
                warm_s: t0.elapsed().as_secs_f64(),
                timing: Timing::start(),
                peak_rss_mb: peak_rss_mb(),
                check,
            };
        }
    };
    let warm_s = t0.elapsed().as_secs_f64();

    let mut timing = Timing::start();
    let started = Instant::now();
    // However short `--seconds` is, the heavy-pass metric needs an interface
    // round; every block of the script holds some.
    while keep_going(started, seconds, &timing) || !timing.passes.iter().any(|p| p.1) {
        match session.next_round() {
            Ok((kind, _, round_ms)) => {
                check.op(Vec::new());
                timing.record(round_ms, kind == EditKind::Iface);
            }
            Err(e) => {
                // A lost round leaves the event stream out of step with
                // the script; the run has failed, stop sending.
                check.op(vec![e]);
                break;
            }
        }
    }
    timing.close_segment();
    let peak_rss_mb = peak_rss_mb();
    // Left for the parent to compare against a cold run of the corpus as
    // the edits left it; without it the parent's comparison fails.
    match session.final_report() {
        Ok(report) => {
            if let Err(e) = std::fs::write(Layout::in_dir(work).final_report, report) {
                eprintln!("benchmark: cannot keep the final report: {e}");
            }
        }
        Err(e) => eprintln!("benchmark: final report unavailable: {e}"),
    }
    session.stop();
    Measured {
        warm_s,
        timing,
        peak_rss_mb,
        check,
    }
}

// ---- child processes ------------------------------------------------------

/// Entry point of the hidden child modes, `<mode> <workload> <seed> <work
/// dir>` and for `__measure` also `<seconds> <script stream>`. Returns the
/// process exit code.
pub fn child_main(mode: &str, args: &[String]) -> u8 {
    fn number<T: std::str::FromStr>(args: &[String], i: usize) -> Option<T> {
        args.get(i)?.parse().ok()
    }
    let workload = args.first().and_then(|s| Workload::parse(s));
    let (Some(w), Some(seed), Some(work)) = (workload, number::<u64>(args, 1), args.get(2)) else {
        eprintln!("benchmark {mode}: bad arguments {args:?}");
        return 2;
    };
    let work = Path::new(work);
    if mode == PREPARE_ARG {
        return match prepare(w, seed, work) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("benchmark {mode}: {e}");
                1
            }
        };
    }
    let (Some(seconds), Some(stream)) = (number::<f64>(args, 3), number::<u64>(args, 4)) else {
        eprintln!("benchmark {mode}: bad arguments {args:?}");
        return 2;
    };
    let measured = if w == Workload::ServeEdits {
        measure_serve(seed, stream, seconds, work)
    } else {
        measure_batch(w, seconds, work)
    };
    println!("{}", measured.to_json().to_compact());
    0
}

/// Runs a child mode of this binary to completion and returns its stdout.
fn run_child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {:?} exited with {}", args, out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| e.to_string())
}

/// One untraced run of `w`: [`SETUPS`] set-ups, each followed by its share
/// of the timed passes, then the reference checks in this process.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let root = PathBuf::from(WORK_ROOT).join(format!("{}-{}", w.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let result = run_in(w, seed, seconds, &root);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn run_in(w: Workload, seed: u64, seconds: f64, root: &Path) -> Result<RunResult, String> {
    let mut result = RunResult {
        processes: Vec::new(),
        check: Check::default(),
    };
    let name = w.name().to_string();
    let share = (seconds / SETUPS as f64).to_string();
    for i in 0..SETUPS {
        let work = root.join(format!("s{i}"));
        let work_arg = work.to_string_lossy().into_owned();

        let probe_before = probe::run_ms();
        let t = Instant::now();
        run_child(&[
            PREPARE_ARG.into(),
            name.clone(),
            seed.to_string(),
            work_arg.clone(),
        ])?;
        let prepare_s = t.elapsed().as_secs_f64();

        let stdout = run_child(&[
            MEASURE_ARG.into(),
            name.clone(),
            seed.to_string(),
            work_arg,
            share.clone(),
            i.to_string(),
        ])?;
        let measured = stdout
            .lines()
            .last()
            .and_then(|l| Json::parse(l).ok())
            .as_ref()
            .and_then(Measured::from_json)
            .ok_or_else(|| format!("unreadable child result: {stdout}"))?;
        let setup_wall_s = prepare_s + measured.warm_s;
        // The child's first probe ran as soon as its set-up had ended.
        let around = (probe_before + measured.timing.probe_ms[0]) / 2.0;
        result.processes.push(ProcessSample {
            setup_wall_s,
            setup_s: setup_wall_s * probe::NOMINAL_MS / around,
            passes: measured.timing.passes(),
            probe_ms: measured.timing.probe_ms,
            peak_rss_mb: measured.peak_rss_mb,
        });
        result.check.absorb(measured.check);
        if i + 1 < SETUPS {
            let _ = std::fs::remove_dir_all(&work);
            continue;
        }
        // The oracle and the golden corpus run here, after the measured
        // processes have exited, on the inputs they were measured on.
        if w == Workload::BatchFlat {
            result.check.absorb(check::alarms());
        }
        let layout = Layout::in_dir(&work);
        if w == Workload::ServeEdits {
            let report = std::fs::read_to_string(&layout.final_report)
                .map_err(|e| format!("the measuring process left none ({e})"));
            result.check.op(check::converged(&report, &layout.corpus));
        }
        let cache = (w == Workload::WarmRerun).then_some(layout.cache);
        result
            .check
            .absorb(check::validate_pass(&layout.corpus, cache, w.units()));
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(probe_ms: &[f64], passes: &[(f64, bool, usize)]) -> Timing {
        Timing {
            probe_ms: probe_ms.to_vec(),
            passes: passes.to_vec(),
            segment_ms: 0.0,
        }
    }

    #[test]
    fn a_pass_is_divided_by_the_speed_of_the_probes_around_its_segment() {
        let n = probe::NOMINAL_MS;
        // Segment 0 ran at nominal speed, segment 1 on a host twice as slow
        // (probes 2n on both sides), segment 2 while it recovered.
        let t = timing(
            &[n, n, 2.0 * n, 2.0 * n, n],
            &[
                (100.0, true, 0),
                (150.0, false, 1),
                (200.0, true, 2),
                (150.0, true, 3),
            ],
        );
        let ms: Vec<f64> = t.passes().iter().map(|p| p.ms).collect();
        assert_eq!(ms, vec![100.0, 100.0, 100.0, 100.0]);
        let wall: Vec<f64> = t.passes().iter().map(|p| p.wall_ms).collect();
        assert_eq!(wall, vec![100.0, 150.0, 200.0, 150.0]);
        assert!(!t.passes()[1].heavy);
    }

    #[test]
    fn timing_survives_the_trip_through_the_childs_result_line() {
        let t = timing(&[80.0, 90.0, 85.0], &[(10.0, true, 0), (12.0, false, 1)]);
        let back = Timing::from_json(&Json::parse(&t.to_json().to_compact()).unwrap()).unwrap();
        assert_eq!(back.probe_ms, t.probe_ms);
        assert_eq!(back.passes, t.passes);
        // A pass whose closing probe is missing cannot be normalised.
        let torn = timing(&[80.0], &[(10.0, true, 0)]);
        assert!(Timing::from_json(&Json::parse(&torn.to_json().to_compact()).unwrap()).is_none());
    }
}
