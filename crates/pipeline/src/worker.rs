//! Process-isolated unit execution: the `--isolation process` backend.
//!
//! Thread-mode fault containment (`catch_unwind` + cooperative budgets)
//! cannot survive everything a pathological translation unit can do:
//! `std::process::abort`, stack overflow, allocation failure, and
//! non-cooperative spins all take the whole batch — or the serve daemon —
//! down with them. This module re-executes the current binary as a
//! single-unit worker (`sga __worker`, a hidden subcommand) per unit, so
//! those deaths land on a disposable process:
//!
//! * **Hard limits.** The worker applies `RLIMIT_AS` (from
//!   `--worker-mem-mb`) and an `RLIMIT_CPU` backstop (derived from
//!   `--worker-timeout-ms`) to itself via raw-FFI `setrlimit` before
//!   touching the unit — enforcement the cooperative
//!   [`sga_core::budget::Budget`] cannot give.
//! * **Wall-clock supervision.** The parent waits for the worker's stdout
//!   to close for at most `--worker-timeout-ms` and SIGKILLs a stalled one;
//!   `RLIMIT_CPU` catches the case where the supervisor itself is wedged.
//! * **Sealed pipe protocol.** Request and response travel over
//!   stdin/stdout as [`crate::store::seal`]ed text — one envelope each, its
//!   checksum over the bytes on the pipe — so a torn write from a dying
//!   worker is *detected*: it fails the checksum and counts as a death,
//!   never as a half-result.
//! * **Kill, retry, degrade.** A dead worker is retried once; a unit that
//!   kills both attempts degrades to the existing `crashed` outcome (the
//!   run finishes, exit 3) instead of failing the run. Cooperative budget
//!   exhaustion inside the worker still comes back `degraded` — the two
//!   outcomes stay distinct.
//!
//! Division of labor: the worker performs the cache *load* (and
//! validate-mode cross-check); the parent keeps the write-ahead ordering —
//! journal record before cache store — exactly as in thread mode, so
//! `--resume` replays byte-identically. The response carries the unit's
//! stage times, which the parent's `timing_ms` adds up as it does a
//! thread's. Isolation is run mechanics (DESIGN.md §17): canonical reports
//! are byte-identical across modes (`tests/isolation.rs` holds them equal).

use crate::cache;
use crate::journal::Failure;
use crate::store::{seal, unseal};
use crate::unit::UnitAnalysis;
use crate::{PipelineOptions, Processed, UnitCtx, UnitInput};
use sga_core::budget::{Budget, WorkerLimits};
use sga_utils::stats::StageTimes;
use sga_utils::Json;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::time::Duration;

/// The hidden argv\[1\] that turns the binary into a single-unit worker.
pub const WORKER_ARG: &str = "__worker";

/// Wire-format version of the request/response payloads.
const WORKER_FORMAT: u32 = 8;

/// Attempts per unit (1 original + 1 retry) before the unit is recorded
/// `crashed`. Bounded so a unit that deterministically kills its worker
/// cannot stall the batch in a respawn loop.
const WORKER_ATTEMPTS: u32 = 2;

/// Where a unit's analysis runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IsolationMode {
    /// In-process worker threads (the default): cheapest, survives panics
    /// via `catch_unwind`, but aborts/OOM/stack overflow/hard stalls in one
    /// unit kill the whole run.
    #[default]
    Thread,
    /// One re-exec'd worker process per unit: survives everything thread
    /// mode cannot, at ~one process spawn per analyzed unit.
    Process,
}

impl IsolationMode {
    /// Parses an `--isolation` value.
    pub fn parse(s: &str) -> Option<IsolationMode> {
        match s {
            "thread" => Some(IsolationMode::Thread),
            "process" => Some(IsolationMode::Process),
            _ => None,
        }
    }

    /// The `--isolation` value this mode parses from.
    pub fn as_str(self) -> &'static str {
        match self {
            IsolationMode::Thread => "thread",
            IsolationMode::Process => "process",
        }
    }
}

// ---- containment counters ----------------------------------------------
//
// Process-wide, cumulative: the batch driver reports the delta across its
// run, the serve daemon surfaces the running totals in `status`. Atomics
// because workers are supervised from concurrent scheduler threads.

static KILLED: AtomicUsize = AtomicUsize::new(0);
static RETRIED: AtomicUsize = AtomicUsize::new(0);
static OOM: AtomicUsize = AtomicUsize::new(0);
static STALLS: AtomicUsize = AtomicUsize::new(0);

/// A point-in-time copy of the containment counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IsolationSnapshot {
    /// Worker deaths (any abnormal exit: signal, nonzero status, or a torn
    /// response).
    pub killed: usize,
    /// Deaths that were answered with a retry attempt.
    pub retried: usize,
    /// Deaths whose stderr carries the allocator's out-of-memory signature.
    pub oom: usize,
    /// Deaths inflicted by the wall-clock supervisor (SIGKILL on
    /// `--worker-timeout-ms`).
    pub stalls: usize,
}

impl IsolationSnapshot {
    /// Counter movement since an earlier snapshot.
    pub fn since(&self, earlier: &IsolationSnapshot) -> IsolationSnapshot {
        IsolationSnapshot {
            killed: self.killed - earlier.killed,
            retried: self.retried - earlier.retried,
            oom: self.oom - earlier.oom,
            stalls: self.stalls - earlier.stalls,
        }
    }
}

/// The process-wide containment counters, cumulative since startup.
pub fn stats() -> IsolationSnapshot {
    IsolationSnapshot {
        killed: KILLED.load(Ordering::Relaxed),
        retried: RETRIED.load(Ordering::Relaxed),
        oom: OOM.load(Ordering::Relaxed),
        stalls: STALLS.load(Ordering::Relaxed),
    }
}

// ---- wire format --------------------------------------------------------

/// Everything the worker needs to run one unit, decoded from its stdin.
pub(crate) struct Request {
    input: UnitInput,
    index: usize,
    key: u64,
    render_key: u64,
    /// The options the unit runs under: its own budget and fault
    /// directives, and the worker's limits.
    pub(crate) options: PipelineOptions,
}

/// Renders the sealed request for `input` under the parent's options.
pub(crate) fn encode_request(
    ctx: &UnitCtx,
    i: usize,
    input: &UnitInput,
    key: u64,
    render_key: u64,
    budget: &Budget,
) -> String {
    // The unit's own directives, as spec text: the worker fires the fatal
    // ones and panics on `panic@`; the store-side ones are the parent's.
    let unit = PipelineOptions {
        budget: *budget,
        faults: ctx.options.faults.only(i),
        ..ctx.options.clone()
    };
    seal(
        &Json::obj()
            .with("schema", WORKER_FORMAT)
            .with("name", input.name.as_str())
            .with("index", i)
            .with("source", input.source.as_str())
            .with("key", format!("{key:016x}"))
            .with("render_key", format!("{render_key:016x}"))
            .with("options", unit.routes().worker),
    )
}

/// Parses and verifies a sealed request; `None` on any damage.
pub(crate) fn decode_request(text: &str) -> Option<Request> {
    let p = unseal(text)?;
    if p.get("schema")?.as_u64()? != u64::from(WORKER_FORMAT) {
        return None;
    }
    let hex = |key: &str| u64::from_str_radix(p.get(key)?.as_str()?, 16).ok();
    Some(Request {
        input: UnitInput {
            name: p.get("name")?.as_str()?.to_string(),
            source: p.get("source")?.as_str()?.to_string(),
        },
        index: p.get("index")?.as_u64()? as usize,
        key: hex("key")?,
        render_key: hex("render_key")?,
        options: PipelineOptions::from_worker(p.get("options")?)?,
    })
}

/// Renders the sealed response for a processed unit.
fn encode_response(p: &Processed) -> String {
    let mut payload = Json::obj()
        .with("schema", WORKER_FORMAT)
        .with("unit", p.json.clone())
        .with("store", p.store)
        .with("times", p.times.to_json());
    if let Some((kind, message)) = &p.failure {
        payload.set("failure", kind.as_str());
        payload.set("error", message.as_str());
    }
    if let Some(a) = &p.analysis {
        // The analysis rides along as a cache-entry payload, so the parent
        // can store it under write-ahead ordering and the daemon can keep
        // it in memory — without the worker ever writing to the cache
        // itself. The response's own seal covers its bytes.
        payload.set("analysis", cache::encode(a));
    }
    seal(&payload)
}

/// Parses and verifies a sealed response; `None` on any damage (a torn
/// write from a dying worker lands here, not in the report).
fn decode_response(text: &str) -> Option<Processed> {
    let p = unseal(text)?;
    if p.get("schema")?.as_u64()? != u64::from(WORKER_FORMAT) {
        return None;
    }
    let failure = match p.get("failure") {
        None => None,
        Some(f) => Some((
            Failure::from_str(f.as_str()?)?,
            p.get("error")?.as_str()?.to_string(),
        )),
    };
    let analysis: Option<Box<UnitAnalysis>> = match p.get("analysis") {
        Some(a) => Some(Box::new(cache::decode(a)?)),
        None => None,
    };
    Some(Processed {
        json: p.get("unit")?.clone(),
        failure,
        analysis,
        store: p.get("store")?.as_bool()?,
        times: StageTimes::from_json(p.get("times")?)?,
    })
}

// ---- worker side --------------------------------------------------------

/// Applies the request's hard limits to the current process via raw-FFI
/// `setrlimit(2)` — same no-new-deps idiom as the daemon's `setsockopt`
/// and the batch driver's `signal` handler.
#[cfg(target_os = "linux")]
fn apply_limits(limits: &WorkerLimits) {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    const RLIMIT_CPU: i32 = 0;
    const RLIMIT_AS: i32 = 9;
    extern "C" {
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }
    let set = |resource: i32, value: u64| {
        let rlim = RLimit {
            cur: value,
            max: value,
        };
        // Failure to tighten a limit is not fatal: the worker still runs,
        // merely unconfined — the supervisor's SIGKILL remains.
        unsafe { setrlimit(resource, &rlim) };
    };
    if let Some(mb) = limits.mem_mb {
        set(RLIMIT_AS, mb.saturating_mul(1 << 20));
    }
    if let Some(secs) = limits.cpu_limit_secs() {
        set(RLIMIT_CPU, secs);
    }
}

#[cfg(not(target_os = "linux"))]
fn apply_limits(_limits: &WorkerLimits) {}

/// The worker entry point: reads one sealed request from stdin, analyzes
/// the unit in-process (thread mode), writes one sealed response to stdout.
/// The host binary dispatches here on `argv[1] == "__worker"` before any
/// other argument parsing. Returns the process exit code.
pub fn worker_main() -> i32 {
    let mut text = String::new();
    if std::io::stdin().read_to_string(&mut text).is_err() {
        eprintln!("sga __worker: cannot read request from stdin");
        return 2;
    }
    let Some(req) = decode_request(&text) else {
        eprintln!("sga __worker: malformed or unverifiable request");
        return 2;
    };
    drop(text);
    let options = req.options;
    apply_limits(&options.worker_limits);
    // Panics are caught and rendered into the response; keep stderr quiet
    // so the parent's death classifier reads only genuine death notices
    // (the allocator's OOM signature, the runtime's stack-overflow note).
    std::panic::set_hook(Box::new(|_| {}));

    let cache = match options.open_cache() {
        Ok(cache) => cache,
        Err(e) => {
            eprintln!("sga __worker: {e}");
            return 2;
        }
    };
    let ctx = UnitCtx {
        options: &options,
        cache: cache.as_ref(),
    };
    let p = crate::process_unit(
        &ctx,
        req.index,
        &req.input,
        req.key,
        req.render_key,
        &options.budget,
    );
    let response = encode_response(&p);
    let mut out = std::io::stdout();
    if out
        .write_all(response.as_bytes())
        .and_then(|()| out.flush())
        .is_err()
    {
        return 2;
    }
    0
}

// ---- parent side --------------------------------------------------------

/// The binary to re-exec as a worker: `$SGA_WORKER_BIN` when set (test
/// harnesses whose own binary has no `__worker` dispatch point it at the
/// `sga` CLI), else the current executable.
fn worker_binary() -> PathBuf {
    match std::env::var_os("SGA_WORKER_BIN") {
        Some(bin) => PathBuf::from(bin),
        None => std::env::current_exe().unwrap_or_else(|_| PathBuf::from("sga")),
    }
}

/// Why one worker attempt yielded no result.
struct Death {
    message: String,
    stalled: bool,
    oom: bool,
}

/// Waits for `child`, SIGKILLing it once `timeout_ms` (when set) elapses.
/// A worker that ends — by exiting or by dying — closes its stdout, and the
/// reader thread reports that over `stdout_eof` (a hung-up channel counts:
/// the reader is gone either way), so the supervisor sleeps until the
/// worker is done or the deadline passes and never polls. Returns the exit
/// status and whether the supervisor had to kill.
fn supervise(
    child: &mut Child,
    timeout_ms: Option<u64>,
    stdout_eof: &Receiver<()>,
) -> std::io::Result<(ExitStatus, bool)> {
    if let Some(ms) = timeout_ms {
        let limit = Duration::from_millis(ms);
        if stdout_eof.recv_timeout(limit) == Err(RecvTimeoutError::Timeout) {
            let _ = child.kill();
            return Ok((child.wait()?, true));
        }
    }
    Ok((child.wait()?, false))
}

/// Renders an abnormal exit status.
fn status_cause(status: ExitStatus) -> String {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        if let Some(sig) = status.signal() {
            return format!("killed by signal {sig}");
        }
    }
    match status.code() {
        Some(code) => format!("exited with status {code}"),
        None => "died without an exit status".to_string(),
    }
}

/// The allocator prints `memory allocation of N bytes failed` before
/// aborting; the runtime prints `...has overflowed its stack`. The first
/// such line (or any first line) of the worker's stderr, for the death
/// notice and the OOM counter.
fn death_notice(stderr: &[u8]) -> String {
    let text = String::from_utf8_lossy(stderr);
    let line = text.lines().map(str::trim).find(|l| !l.is_empty());
    match line {
        Some(l) if l.chars().count() > 200 => {
            let mut s: String = l.chars().take(200).collect();
            s.push('…');
            s
        }
        Some(l) => l.to_string(),
        None => String::new(),
    }
}

/// Runs one worker attempt end to end: spawn, feed the request, supervise,
/// classify the death or decode the sealed response.
fn one_attempt(request: &str, limits: &WorkerLimits) -> Result<Processed, Death> {
    let bin = worker_binary();
    let mut child = Command::new(&bin)
        .arg(WORKER_ARG)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| Death {
            message: format!("cannot spawn isolated worker {}: {e}", bin.display()),
            stalled: false,
            oom: false,
        })?;

    // Feed, drain, and supervise concurrently: a worker that dies mid-read
    // breaks the writer's pipe (harmless), and a killed worker EOFs its
    // readers — no combination deadlocks.
    let mut stdin = child.stdin.take().expect("piped stdin");
    let request_bytes = request.as_bytes().to_vec();
    let writer = std::thread::spawn(move || {
        let _ = stdin.write_all(&request_bytes);
    });
    let mut stdout = child.stdout.take().expect("piped stdout");
    let (eof_tx, stdout_eof) = mpsc::channel();
    let out_reader = std::thread::spawn(move || {
        let mut buf = String::new();
        let _ = stdout.read_to_string(&mut buf);
        let _ = eof_tx.send(());
        buf
    });
    let mut stderr = child.stderr.take().expect("piped stderr");
    let err_reader = std::thread::spawn(move || {
        let mut buf = Vec::new();
        let _ = stderr.read_to_end(&mut buf);
        buf
    });

    let supervised = supervise(&mut child, limits.timeout_ms, &stdout_eof);
    let _ = writer.join();
    let stdout_text = out_reader.join().unwrap_or_default();
    let stderr_bytes = err_reader.join().unwrap_or_default();

    let (status, stalled) = supervised.map_err(|e| Death {
        message: format!("cannot supervise isolated worker: {e}"),
        stalled: false,
        oom: false,
    })?;
    let notice = death_notice(&stderr_bytes);
    let oom = notice.contains("memory allocation of") && notice.contains("failed");
    if stalled {
        let ms = limits.timeout_ms.unwrap_or(0);
        return Err(Death {
            message: format!("isolated worker exceeded the {ms} ms wall-clock limit (SIGKILL)"),
            stalled: true,
            oom,
        });
    }
    if !status.success() {
        let cause = status_cause(status);
        let message = if notice.is_empty() {
            format!("isolated worker {cause}")
        } else {
            format!("isolated worker {cause}: {notice}")
        };
        return Err(Death {
            message,
            stalled: false,
            oom,
        });
    }
    decode_response(&stdout_text).ok_or_else(|| Death {
        message: "isolated worker returned a torn or unverifiable response".to_string(),
        stalled: false,
        oom,
    })
}

/// Analyzes one unit in a supervised worker process, retrying a death once
/// and degrading the unit to the `crashed` outcome when both attempts die.
/// The returned [`Processed`] is shaped exactly like the in-process path's,
/// so the caller's journal/store/report flow does not branch on isolation.
pub(crate) fn run_unit_in_worker(
    ctx: &UnitCtx,
    i: usize,
    input: &UnitInput,
    key: u64,
    render_key: u64,
    budget: &Budget,
) -> Processed {
    let request = encode_request(ctx, i, input, key, render_key, budget);
    let limits = &ctx.options.worker_limits;
    let mut last = String::new();
    for attempt in 1..=WORKER_ATTEMPTS {
        match one_attempt(&request, limits) {
            Ok(p) => return p,
            Err(death) => {
                KILLED.fetch_add(1, Ordering::Relaxed);
                if death.stalled {
                    STALLS.fetch_add(1, Ordering::Relaxed);
                }
                if death.oom {
                    OOM.fetch_add(1, Ordering::Relaxed);
                }
                last = death.message;
                if attempt < WORKER_ATTEMPTS {
                    RETRIED.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    let failure = (
        Failure::Panic,
        format!("{last} [{WORKER_ATTEMPTS} attempts]"),
    );
    Processed::crashed(&input.name, render_key, failure, StageTimes::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testfix::{every_damage, sample_analysis};
    use crate::{render_analyzed, CacheStatus};
    use sga_utils::stats::Stage;

    fn ctx_fixture(options: &PipelineOptions) -> (UnitInput, u64, u64, Budget) {
        let input = UnitInput {
            name: "unit000".to_string(),
            source: "int main() { int x = 1; return x; }".to_string(),
        };
        let key = crate::unit_cache_key(options, &input.source);
        (input, key, key, options.budget)
    }

    /// The unit crosses the pipe whole; which knobs cross with it is
    /// `tag_tests::each_knob_goes_where_its_row_says`' table.
    #[test]
    fn request_roundtrips_through_the_sealed_envelope() {
        let options = PipelineOptions::default();
        let ctx = UnitCtx {
            options: &options,
            cache: None,
        };
        let (input, key, _, budget) = ctx_fixture(&options);
        let sealed = encode_request(&ctx, 3, &input, key, !key, &budget);
        let req = decode_request(&sealed).expect("request decodes");
        assert_eq!(req.input.name, input.name);
        assert_eq!(req.input.source, input.source);
        assert_eq!((req.index, req.key, req.render_key), (3, key, !key));
    }

    /// The fixture unit's request under the default options, sealed.
    fn default_request() -> String {
        let options = PipelineOptions::default();
        let ctx = UnitCtx {
            options: &options,
            cache: None,
        };
        let (input, key, render_key, budget) = ctx_fixture(&options);
        encode_request(&ctx, 0, &input, key, render_key, &budget)
    }

    #[test]
    fn torn_request_and_response_fail_the_checksum() {
        let sealed = default_request();
        assert!(decode_request(&sealed[..sealed.len() / 2]).is_none());
        let mut flipped = sealed.clone().into_bytes();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        assert!(decode_request(&String::from_utf8_lossy(&flipped)).is_none());

        let failure = (Failure::Panic, "boom".to_string());
        let p = Processed::crashed("u", 7, failure, StageTimes::default());
        let resp = encode_response(&p);
        let whole = decode_response(&resp).expect("intact response decodes");
        assert_eq!(whole.failure, Some((Failure::Panic, "boom".to_string())));
        assert!(decode_response(&resp[..resp.len() - 8]).is_none());
    }

    /// A request under the previous format's number is refused for the
    /// number alone: re-sealed as it is it decodes, one schema back it does
    /// not.
    #[test]
    fn previous_format_request_is_a_schema_mismatch() {
        let mut old = unseal(&default_request()).expect("request unseals");
        assert!(decode_request(&seal(&old)).is_some());
        old.set("schema", WORKER_FORMAT - 1);
        assert!(decode_request(&seal(&old)).is_none());
    }

    /// Every torn write and every single-byte change of a response carrying
    /// a whole analysis is a death (a retried unit), never a half-result:
    /// the response's one seal covers the analysis' bytes too. An intact
    /// response hands back the unit's stage times to the nanosecond, the
    /// uncharged stages still uncharged.
    #[test]
    fn every_damage_to_a_response_is_a_death() {
        let a = sample_analysis();
        let mut times = StageTimes::default();
        times.add(Stage::Parse, Duration::ZERO);
        times.add(Stage::Dep, Duration::from_nanos(1_234_567_891));
        times.add(Stage::Validate, Duration::from_nanos(17));
        let p = Processed {
            json: render_analyzed("u", 7, CacheStatus::Miss, &a, None),
            failure: None,
            analysis: Some(Box::new(a)),
            store: true,
            times,
        };
        let resp = encode_response(&p);
        let whole = decode_response(&resp).expect("intact response decodes");
        assert_eq!(
            (whole.json, whole.analysis, whole.store, whole.times),
            (p.json, p.analysis, true, times)
        );
        for (what, bytes) in every_damage(resp.as_bytes()) {
            // The pipe is read as text, so invalid UTF-8 is refused before
            // the decoder sees it.
            let refused = String::from_utf8(bytes).map_or(true, |t| decode_response(&t).is_none());
            assert!(refused, "{what}");
        }
    }

    #[test]
    fn oom_death_notice_is_recognized() {
        let stderr = b"memory allocation of 4294967296 bytes failed\n";
        let notice = death_notice(stderr);
        assert!(notice.contains("memory allocation of") && notice.contains("failed"));
        assert_eq!(death_notice(b""), "");
    }
}
