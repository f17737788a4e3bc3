//! The daemon's network front: line-delimited JSON over TCP and/or Unix
//! sockets, with a filesystem-polling fallback for editors that only write
//! files.
//!
//! # Wire protocol
//!
//! Every request and reply is one JSON object per line. Client → server:
//!
//! ```text
//! {"cmd":"subscribe"}                          stream diff events here
//! {"cmd":"edit","unit":"lib.c","source":"…"}   replace a unit's source
//! {"cmd":"report"}                             full accumulated report
//! {"cmd":"status"}                             units / alarms / rounds / stats
//! {"cmd":"shutdown"}                           stop the daemon
//! ```
//!
//! Server → client: every command gets an `{"ok":…}` reply; subscribers
//! additionally receive one event per completed edit round:
//!
//! ```text
//! {"event":"diff","round":1,"edited":["lib.c"],"invalidated":["app.c","lib.c"],
//!  "diff":{"new":["<fp>"],"fixed":[],"unchanged":41,"new_definite":1},"alarms":42}
//! ```
//!
//! The `diff` body is exactly the report's `baseline` block shape — the
//! baseline classifier *is* the wire protocol. Failure modes stream too:
//! a supervised engine panic emits `{"event":"round_degraded",…}` then
//! `{"event":"engine_restarted",…}` once recovery completes.
//!
//! # Concurrency model
//!
//! One acceptor thread per listener blocks in `accept` and gives each
//! connection a reader thread, so a request is read the moment it arrives
//! (no poll period between a keystroke and its round); shutdown wakes an
//! acceptor by connecting to its listener. One engine thread owns all
//! analysis state and drains a **bounded** request channel; socket reader
//! threads and the filesystem poller only ever enqueue. Edits that arrive
//! while a round is in flight queue up and are **coalesced** into the next
//! round (consecutive edit requests batch, with last-write-wins per unit),
//! so a burst of keystrokes costs one re-analysis, and an edit can never
//! observe — or corrupt — a half-done round.
//!
//! # Robustness model
//!
//! The daemon assumes hostile traffic and a fallible analyzer:
//!
//! * **Load shedding.** The request channel holds at most
//!   [`ServerConfig::queue_cap`] entries. A socket edit that finds it full
//!   is *shed*: the client gets `{"ok":false,"shed":true}` immediately and
//!   owns the retry (`sga watch --edit` backs off and re-sends). Blocking
//!   requests (report/status, the poller) wait instead — they are bounded
//!   by connection count and self-throttle.
//! * **Subscriber isolation.** `broadcast` never writes to a socket; it
//!   `try_send`s each event into a per-subscriber bounded queue drained by
//!   a dedicated writer thread with a write deadline. A subscriber that
//!   stops reading fills its queue (or times its write out) and is
//!   *evicted* — counted in `evicted_slow` — while every other subscriber
//!   and the engine proceed at full speed.
//! * **Supervision.** Each round runs under `catch_unwind`. A panicking
//!   round broadcasts `round_degraded`, then a supervisor rebuilds the
//!   engine from its durable state (corpus dir + cache — sources are
//!   persisted *before* analysis, so no acknowledged edit is lost) and
//!   broadcasts `engine_restarted`, whose `resumed_units` counts the units
//!   the cache answered. Rounds are also the index space for injected
//!   faults ([`ServerConfig::faults`]): round attempts are counted
//!   monotonically across restarts so `panic@2` fires once, not on every
//!   recovery.
//! * **Bounded reads.** Request lines longer than
//!   [`ServerConfig::max_request_line`] are drained (not buffered) and
//!   answered with a structured error; invalid UTF-8 likewise. The
//!   connection survives both.

use crate::engine::{Engine, RoundFault, RoundOutcome};
use crate::stats::ServeStats;
use sga_pipeline::{load_project, panic_message, FaultPlan, Project, QuietPanics};
use sga_utils::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TryRecvError, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An acceptor's pause after an accept error that will not clear by itself
/// (descriptor exhaustion); a healthy acceptor never sleeps.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

/// Where and how to serve.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// TCP bind address (e.g. `127.0.0.1:0` for an ephemeral port).
    pub tcp: Option<String>,
    /// Unix socket path (removed and re-created on start).
    pub unix: Option<PathBuf>,
    /// File to write the bound TCP address to once listening — how scripts
    /// find an ephemeral port.
    pub port_file: Option<PathBuf>,
    /// Poll the corpus directory for out-of-band file edits every this many
    /// milliseconds (`None` = sockets only).
    pub poll_ms: Option<u64>,
    /// Engine request queue capacity; socket edits beyond it are shed.
    pub queue_cap: usize,
    /// Per-subscriber outbound event queue capacity; a subscriber whose
    /// queue fills is evicted.
    pub sub_queue_cap: usize,
    /// Per-subscriber write deadline in milliseconds; a write that cannot
    /// complete within it evicts the subscriber.
    pub write_deadline_ms: u64,
    /// Shrink each subscriber socket's kernel send buffer to roughly this
    /// many bytes (`None` = kernel default). Tests and benches use this to
    /// make a stalled subscriber's eviction deterministic instead of
    /// waiting for tens of kilobytes of kernel buffering to fill.
    pub sub_sndbuf: Option<usize>,
    /// Longest accepted request line in bytes; longer lines are drained
    /// and answered with a structured error.
    pub max_request_line: usize,
    /// Deterministic fault plan keyed by **round attempt** (1-based,
    /// monotonic across engine restarts): `panic@2` panics the second
    /// round, `stall@3=200` sleeps 200ms inside the third. Only `panic`
    /// and `stall` directives apply to serve.
    pub faults: FaultPlan,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            tcp: None,
            unix: None,
            port_file: None,
            poll_ms: None,
            queue_cap: 128,
            sub_queue_cap: 64,
            write_deadline_ms: 5_000,
            sub_sndbuf: None,
            max_request_line: 8 * 1024 * 1024,
            faults: FaultPlan::none(),
        }
    }
}

/// A request enqueued to the engine thread.
enum Req {
    /// Apply edits (unit name, new source).
    Edits(Vec<(String, String)>),
    /// Render the accumulated report.
    Report(Sender<String>),
    /// One-line status.
    Status(Sender<String>),
    /// Stop the daemon.
    Shutdown,
}

/// A connection write half that can take a write deadline and a shrunken
/// kernel send buffer — what subscriber isolation needs beyond
/// [`Write`].
trait SubWrite: Write + Send {
    /// Bounds each write: a stalled peer makes writes fail with a
    /// timeout/would-block error instead of blocking the writer forever.
    fn set_write_deadline(&self, deadline: Option<Duration>) -> std::io::Result<()>;
    /// Best-effort `SO_SNDBUF` shrink (kernel may round up).
    fn set_sndbuf(&self, bytes: usize);
}

impl SubWrite for TcpStream {
    fn set_write_deadline(&self, deadline: Option<Duration>) -> std::io::Result<()> {
        self.set_write_timeout(deadline)
    }
    fn set_sndbuf(&self, bytes: usize) {
        set_sndbuf_fd(self.as_raw_fd(), bytes);
    }
}

impl SubWrite for UnixStream {
    fn set_write_deadline(&self, deadline: Option<Duration>) -> std::io::Result<()> {
        self.set_write_timeout(deadline)
    }
    fn set_sndbuf(&self, bytes: usize) {
        set_sndbuf_fd(self.as_raw_fd(), bytes);
    }
}

/// Raw `setsockopt(SOL_SOCKET, SO_SNDBUF)` — the standard library exposes
/// no buffer-size control, and the crate policy is no new dependencies, so
/// this mirrors the raw `signal(2)` binding in the pipeline's interrupt
/// module. Best effort: a failure leaves the kernel default, which only
/// makes slow-subscriber eviction take longer.
fn set_sndbuf_fd(fd: i32, bytes: usize) {
    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    let value = bytes.min(i32::MAX as usize) as i32;
    unsafe {
        let _ = setsockopt(
            fd,
            SOL_SOCKET,
            SO_SNDBUF,
            &value,
            std::mem::size_of::<i32>() as u32,
        );
    }
}

/// One subscriber as the broadcaster sees it: the sending half of its
/// bounded event queue. The write half lives on the subscriber's writer
/// thread; dropping the sender (eviction, shutdown) disconnects the
/// queue and the writer exits after draining.
struct Subscriber {
    tx: SyncSender<Arc<String>>,
}

/// The live subscriber list.
type Subscribers = Arc<Mutex<Vec<Subscriber>>>;

/// Everything connection handlers need, cloned per connection.
#[derive(Clone)]
struct ConnCtx {
    req_tx: SyncSender<Req>,
    subscribers: Subscribers,
    stats: Arc<ServeStats>,
    sub_queue_cap: usize,
    write_deadline: Duration,
    sub_sndbuf: Option<usize>,
    max_request_line: usize,
}

/// A running daemon.
pub struct ServerHandle {
    /// The bound TCP address, when TCP was configured.
    pub tcp_addr: Option<SocketAddr>,
    req_tx: SyncSender<Req>,
    engine_thread: JoinHandle<()>,
    acceptors: Vec<JoinHandle<()>>,
    poller: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    unix_path: Option<PathBuf>,
    stats: Arc<ServeStats>,
}

impl ServerHandle {
    /// Requests shutdown without waiting.
    pub fn shutdown(&self) {
        let _ = self.req_tx.send(Req::Shutdown);
    }

    /// The daemon's live counters.
    pub fn stats(&self) -> Arc<ServeStats> {
        self.stats.clone()
    }

    /// Blocks until the engine thread exits (a `shutdown` command from any
    /// client, [`ServerHandle::shutdown`], or a `fatal` event), then wakes
    /// and joins the acceptors and the poller. On return the listeners are
    /// closed and the socket file is gone; the only daemon threads left
    /// serve connections a client still holds open, and end with them.
    pub fn wait(self) {
        let _ = self.engine_thread.join();
        self.stop.store(true, Ordering::SeqCst);
        // An acceptor blocked in `accept` is woken by what it waits for: a
        // connection, made here to the daemon's own listeners and dropped at
        // once (std can neither shut a listener down nor poll it). A
        // wildcard bind is reached through loopback on its port. `woken` is
        // in `acceptors` order — TCP, then Unix, as `serve` spawned them.
        let mut woken = Vec::new();
        if let Some(mut addr) = self.tcp_addr {
            if addr.ip().is_unspecified() {
                addr.set_ip(match addr {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            woken.push(TcpStream::connect_timeout(&addr, Duration::from_secs(1)).is_ok());
        }
        if let Some(path) = &self.unix_path {
            woken.push(UnixStream::connect(path).is_ok());
            let _ = std::fs::remove_file(path);
        }
        for (acceptor, woken) in self.acceptors.into_iter().zip(woken) {
            // A wake that could not connect (descriptors exhausted, socket
            // file removed behind the daemon's back) leaves its acceptor
            // parked rather than hanging the caller on the join.
            if woken || acceptor.is_finished() {
                let _ = acceptor.join();
            }
        }
        if let Some(poller) = self.poller {
            poller.thread().unpark();
            let _ = poller.join();
        }
    }
}

/// Starts serving `engine` per `config`: spawns the engine thread, the
/// configured listeners, and (optionally) the filesystem poller, then
/// returns immediately. Callers typically follow with
/// [`ServerHandle::wait`].
pub fn serve(engine: Engine, config: &ServerConfig) -> std::io::Result<ServerHandle> {
    let (req_tx, req_rx) = mpsc::sync_channel::<Req>(config.queue_cap.max(1));
    let subscribers: Subscribers = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(ServeStats::default());
    let ctx = ConnCtx {
        req_tx: req_tx.clone(),
        subscribers: subscribers.clone(),
        stats: stats.clone(),
        sub_queue_cap: config.sub_queue_cap.max(1),
        write_deadline: Duration::from_millis(config.write_deadline_ms.max(1)),
        sub_sndbuf: config.sub_sndbuf,
        max_request_line: config.max_request_line.max(1),
    };

    let mut acceptors = Vec::new();
    let mut tcp_addr = None;
    if let Some(bind) = &config.tcp {
        let listener = TcpListener::bind(bind)?;
        tcp_addr = Some(listener.local_addr()?);
        let accept = move || accept_tcp(&listener);
        acceptors.push(spawn_acceptor(accept, TcpStream::try_clone, &ctx, &stop));
    }
    if let (Some(addr), Some(path)) = (tcp_addr, &config.port_file) {
        std::fs::write(path, format!("{addr}\n"))?;
    }

    let mut unix_path = None;
    if let Some(path) = &config.unix {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        unix_path = Some(path.clone());
        let accept = move || listener.accept().map(|(stream, _)| stream);
        acceptors.push(spawn_acceptor(accept, UnixStream::try_clone, &ctx, &stop));
    }

    let poller = config.poll_ms.map(|ms| {
        spawn_poller(
            engine.dir().to_path_buf(),
            ms.max(1),
            req_tx.clone(),
            stop.clone(),
        )
    });

    let engine_stop = stop.clone();
    let engine_subs = subscribers;
    let engine_stats = stats.clone();
    let faults = config.faults.clone();
    let engine_thread = std::thread::Builder::new()
        .name("sga-serve-engine".into())
        .spawn(move || {
            engine_loop(engine, req_rx, engine_subs, engine_stats, faults);
            engine_stop.store(true, Ordering::SeqCst);
        })?;

    Ok(ServerHandle {
        tcp_addr,
        req_tx,
        engine_thread,
        acceptors,
        poller,
        stop,
        unix_path,
        stats,
    })
}

/// The engine thread: drains requests in order, coalescing consecutive
/// edit batches into one round, broadcasting each round's diff event, and
/// supervising the engine against panicking rounds.
fn engine_loop(
    mut engine: Engine,
    req_rx: Receiver<Req>,
    subscribers: Subscribers,
    stats: Arc<ServeStats>,
    faults: FaultPlan,
) {
    let mut stashed: Option<Req> = None;
    // Round *attempts*, monotonic across engine restarts — the fault
    // plan's index space. (`engine.rounds()` resets on recovery and
    // counts only completed rounds, which would re-fire one-shot faults.)
    let mut attempts: usize = 0;
    loop {
        let req = match stashed.take() {
            Some(r) => r,
            None => match req_rx.recv() {
                Ok(r) => r,
                Err(_) => return, // every sender gone
            },
        };
        match req {
            Req::Edits(mut batch) => {
                // Coalesce the burst: consecutive edit requests already in
                // the channel join this round (later entries win per unit —
                // `apply_edits` is last-write-wins). The first non-edit
                // request is stashed, preserving order for report/status.
                loop {
                    match req_rx.try_recv() {
                        Ok(Req::Edits(more)) => batch.extend(more),
                        Ok(other) => {
                            stashed = Some(other);
                            break;
                        }
                        Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
                    }
                }
                attempts += 1;
                let fault = RoundFault {
                    panic: faults.should_panic(attempts),
                    stall_ms: faults.stall_ms(attempts),
                };
                let started = Instant::now();
                // Injected and genuine analyzer panics both unwind to
                // here; silence the default hook's backtrace spew for the
                // supervised window (the engine thread is the only one
                // panicking by design).
                let quiet = QuietPanics::new(true);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    engine.apply_edits_injected(batch, fault)
                }));
                drop(quiet);
                match result {
                    Ok(Ok(outcome)) if outcome.is_noop() => {}
                    Ok(Ok(outcome)) => {
                        stats.note_round(started.elapsed());
                        broadcast(&subscribers, &stats, &diff_event(engine.rounds(), &outcome));
                    }
                    Ok(Err(e)) => broadcast(
                        &subscribers,
                        &stats,
                        &Json::obj()
                            .with("event", "error")
                            .with("error", e.to_string()),
                    ),
                    Err(panic) => {
                        stats.note_degraded();
                        broadcast(
                            &subscribers,
                            &stats,
                            &Json::obj()
                                .with("event", "round_degraded")
                                .with("round_attempt", attempts)
                                .with("error", panic_message(&*panic)),
                        );
                        // Supervisor: the in-memory engine may hold a
                        // half-applied round; rebuild from durable state.
                        // Sources were persisted before the panic window,
                        // so no acknowledged edit is lost.
                        let dir = engine.dir().to_path_buf();
                        let opts = engine.options().clone();
                        match Engine::new(&dir, &opts) {
                            Ok(fresh) => {
                                engine = fresh;
                                stats.note_restart();
                                broadcast(
                                    &subscribers,
                                    &stats,
                                    &Json::obj()
                                        .with("event", "engine_restarted")
                                        .with("round_attempt", attempts)
                                        .with("resumed_units", engine.resumed_units())
                                        .with("alarms", engine.alarms()),
                                );
                            }
                            Err(e) => {
                                // Recovery itself failed (corpus dir gone,
                                // cache unopenable): nothing sane to serve.
                                broadcast(
                                    &subscribers,
                                    &stats,
                                    &Json::obj()
                                        .with("event", "fatal")
                                        .with("error", e.to_string()),
                                );
                                return;
                            }
                        }
                    }
                }
            }
            Req::Report(reply) => {
                let line = match engine.report() {
                    Ok(report) => report.to_compact(),
                    Err(e) => Json::obj()
                        .with("ok", false)
                        .with("error", e.to_string())
                        .to_compact(),
                };
                let _ = reply.send(line);
            }
            Req::Status(reply) => {
                let subs_now = subscribers.lock().unwrap_or_else(|p| p.into_inner()).len();
                let mut status = Json::obj()
                    .with("ok", true)
                    .with("units", engine.unit_names().len())
                    .with("alarms", engine.alarms())
                    .with("rounds", engine.rounds())
                    .with("resumed_units", engine.resumed_units())
                    .with("subscribers", subs_now)
                    .with("shed", stats.shed())
                    .with("evicted_slow", stats.evicted_slow())
                    .with("degraded_rounds", stats.degraded_rounds())
                    .with("engine_restarts", stats.engine_restarts())
                    .with("accept_errors", stats.accept_errors());
                // Cumulative isolated-worker counters for this process;
                // all zero unless the engine runs with process isolation.
                let workers = sga_pipeline::worker::stats();
                status.set("workers_killed", workers.killed);
                status.set("workers_retried", workers.retried);
                status.set("workers_oom", workers.oom);
                status.set("workers_stalled", workers.stalls);
                if let Some(p50) = stats.round_percentile_ms(50) {
                    status.set("round_p50_ms", p50 as usize);
                }
                if let Some(p95) = stats.round_percentile_ms(95) {
                    status.set("round_p95_ms", p95 as usize);
                }
                let _ = reply.send(status.to_compact());
            }
            Req::Shutdown => return,
        }
    }
}

/// Renders one round's broadcast event.
fn diff_event(round: usize, outcome: &RoundOutcome) -> Json {
    let names = |v: &[String]| v.iter().map(|n| Json::from(n.as_str())).collect::<Vec<_>>();
    Json::obj()
        .with("event", "diff")
        .with("round", round)
        .with("edited", names(&outcome.edited))
        .with("invalidated", names(&outcome.invalidated))
        .with("diff", outcome.diff.to_json())
        .with("alarms", outcome.alarms)
}

/// Enqueues `event` to every subscriber's bounded queue without touching a
/// socket. A queue that is full means its writer thread has been stuck (or
/// behind) for a whole queue's worth of events: that subscriber is evicted
/// — dropping the sender disconnects the writer — and counted. A
/// disconnected queue means the writer already exited (peer gone or write
/// deadline hit) and is silently reaped.
fn broadcast(subscribers: &Subscribers, stats: &ServeStats, event: &Json) {
    let line = Arc::new(format!("{}\n", event.to_compact()));
    let mut subs = subscribers.lock().unwrap_or_else(|p| p.into_inner());
    subs.retain(|s| match s.tx.try_send(line.clone()) {
        Ok(()) => true,
        Err(TrySendError::Full(_)) => {
            stats.note_evicted();
            false
        }
        Err(TrySendError::Disconnected(_)) => false,
    });
}

/// The subscriber's writer thread: drains the bounded queue onto the
/// socket under the write deadline. A deadline miss (the peer stopped
/// reading and its kernel buffer is full) counts as a slow eviction; any
/// other error is a vanished peer. Either way the thread exits, the queue
/// disconnects, and the broadcaster reaps the entry.
fn spawn_subscriber_writer(
    mut write: Box<dyn SubWrite>,
    rx: Receiver<Arc<String>>,
    stats: Arc<ServeStats>,
) {
    std::thread::spawn(move || {
        for line in rx {
            if let Err(e) = write
                .write_all(line.as_bytes())
                .and_then(|()| write.flush())
            {
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    stats.note_evicted();
                }
                return;
            }
        }
    });
}

/// Accepts one TCP connection with Nagle off: a request line, an ack, an
/// event is each one small write in a strict request → reply → event
/// rhythm, which Nagle plus delayed ACK turns into 40 ms stalls on a real
/// network. Best effort, like the send-buffer shrink.
fn accept_tcp(listener: &TcpListener) -> std::io::Result<TcpStream> {
    let (stream, _) = listener.accept()?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// Whether a failed `accept` is retried at once: the call was interrupted,
/// or the peer gave up between its handshake and our accept. Anything else
/// — descriptor exhaustion (`EMFILE` / `ENFILE`, uncategorized in std),
/// memory pressure, the unforeseen — is retried after [`ACCEPT_BACKOFF`],
/// so no error can spin the loop and none ends it.
fn accept_error_is_transient(kind: std::io::ErrorKind) -> bool {
    use std::io::ErrorKind::{ConnectionAborted, Interrupted};
    matches!(kind, Interrupted | ConnectionAborted)
}

/// The accept loop, one copy for both listener kinds: blocks in `accept`
/// (a connection is served when it arrives, not at the next poll), gives
/// each stream a handler thread, and leaves only once `stop` is set — seen
/// because [`ServerHandle::wait`] then connects to the listener. A failed
/// accept, clone or thread spawn is counted and survived: the daemon never
/// goes deaf while its engine runs.
fn spawn_acceptor<S: std::io::Read + SubWrite + 'static>(
    accept: impl Fn() -> std::io::Result<S> + Send + 'static,
    clone: fn(&S) -> std::io::Result<S>,
    ctx: &ConnCtx,
    stop: &Arc<AtomicBool>,
) -> JoinHandle<()> {
    let (ctx, stop) = (ctx.clone(), stop.clone());
    std::thread::spawn(move || loop {
        let accepted = accept();
        if stop.load(Ordering::SeqCst) {
            return; // the shutdown wake, or a client that lost the race with it
        }
        let handled = accepted.and_then(|read| {
            let (write, ctx) = (clone(&read)?, ctx.clone());
            std::thread::Builder::new().spawn(move || handle_connection(read, Box::new(write), ctx))
        });
        if let Err(e) = handled {
            ctx.stats.note_accept_error();
            if !accept_error_is_transient(e.kind()) {
                std::thread::sleep(ACCEPT_BACKOFF);
            }
        }
    })
}

/// Why [`read_request_line`] could not produce a request line.
enum LineError {
    /// The line exceeded the configured bound (it was drained, not
    /// buffered — the connection can continue).
    TooLong,
    /// The line was not valid UTF-8 (the connection can continue).
    NotUtf8,
    /// The underlying read failed; the connection is done.
    Io,
}

/// Reads one `\n`-terminated request line, buffering at most `max` bytes.
/// An over-long line is consumed to its newline (or EOF) without ever
/// holding more than a buffer's worth in memory — a hostile client cannot
/// grow daemon memory by withholding the newline. Returns `Ok(None)` at a
/// clean EOF; a final unterminated line is returned as-is (covers clients
/// that disconnect mid-line — the parse error reply goes nowhere, which
/// is fine).
fn read_request_line<R: BufRead>(reader: &mut R, max: usize) -> Result<Option<String>, LineError> {
    let mut line: Vec<u8> = Vec::new();
    let mut too_long = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(LineError::Io),
        };
        if chunk.is_empty() {
            // EOF: deliver what we have (possibly nothing).
            if too_long {
                return Err(LineError::TooLong);
            }
            if line.is_empty() {
                return Ok(None);
            }
            break;
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if !too_long && line.len() + take > max {
            too_long = true;
            line.clear(); // stop buffering, keep draining
        }
        if !too_long {
            line.extend_from_slice(&chunk[..take]);
        }
        let consumed = take + usize::from(newline.is_some());
        reader.consume(consumed);
        if newline.is_some() {
            if too_long {
                return Err(LineError::TooLong);
            }
            break;
        }
    }
    match String::from_utf8(line) {
        Ok(s) => Ok(Some(s)),
        Err(_) => Err(LineError::NotUtf8),
    }
}

/// One client connection: reads request lines until EOF, replying on the
/// connection's write half. `subscribe` moves the write half onto a
/// dedicated writer thread feeding from a bounded event queue; the reader
/// exits and the connection becomes a pure event stream.
fn handle_connection<R: std::io::Read>(read: R, mut write: Box<dyn SubWrite>, ctx: ConnCtx) {
    let reply = |w: &mut Box<dyn SubWrite>, j: Json| {
        let _ = w
            .write_all(format!("{}\n", j.to_compact()).as_bytes())
            .and_then(|()| w.flush());
    };
    let err = |msg: &str| Json::obj().with("ok", false).with("error", msg);
    let mut reader = BufReader::new(read);
    loop {
        let line = match read_request_line(&mut reader, ctx.max_request_line) {
            Ok(Some(line)) => line,
            Ok(None) => return,
            Err(LineError::TooLong) => {
                reply(
                    &mut write,
                    err(&format!(
                        "request line exceeds {} bytes",
                        ctx.max_request_line
                    )),
                );
                continue;
            }
            Err(LineError::NotUtf8) => {
                reply(&mut write, err("request line is not valid UTF-8"));
                continue;
            }
            Err(LineError::Io) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let Ok(req) = Json::parse(&line) else {
            reply(&mut write, err("request is not valid JSON"));
            continue;
        };
        match req.get("cmd").and_then(Json::as_str) {
            Some("subscribe") => {
                // Subscribing hands this connection's write half to a
                // dedicated writer thread for good; the connection becomes
                // a pure event stream, further commands belong on a fresh
                // connection. Ack and register under the broadcast lock:
                // once the client has read the ack, every later broadcast
                // is ordered after its registration — it cannot miss an
                // event it caused.
                if let Some(bytes) = ctx.sub_sndbuf {
                    write.set_sndbuf(bytes);
                }
                let _ = write.set_write_deadline(Some(ctx.write_deadline));
                let (tx, rx) = mpsc::sync_channel::<Arc<String>>(ctx.sub_queue_cap);
                let mut subs = ctx.subscribers.lock().unwrap_or_else(|p| p.into_inner());
                reply(
                    &mut write,
                    Json::obj().with("ok", true).with("subscribed", true),
                );
                subs.push(Subscriber { tx });
                drop(subs);
                spawn_subscriber_writer(write, rx, ctx.stats.clone());
                return;
            }
            Some("edit") => {
                let unit = req.get("unit").and_then(Json::as_str);
                let source = req.get("source").and_then(Json::as_str);
                match (unit, source) {
                    (Some(unit), Some(source)) => {
                        // Shed on a full queue instead of blocking the
                        // socket: the client owns the retry, the reply
                        // says so explicitly.
                        match ctx
                            .req_tx
                            .try_send(Req::Edits(vec![(unit.to_string(), source.to_string())]))
                        {
                            Ok(()) => reply(
                                &mut write,
                                Json::obj().with("ok", true).with("queued", unit),
                            ),
                            Err(TrySendError::Full(_)) => {
                                ctx.stats.note_shed();
                                reply(
                                    &mut write,
                                    Json::obj()
                                        .with("ok", false)
                                        .with("shed", true)
                                        .with("error", "request queue full, retry"),
                                );
                            }
                            Err(TrySendError::Disconnected(_)) => {
                                reply(&mut write, err("daemon is shutting down"));
                            }
                        }
                    }
                    _ => reply(
                        &mut write,
                        err("edit needs string fields `unit` and `source`"),
                    ),
                }
            }
            Some("report") => {
                let (tx, rx) = mpsc::channel();
                if ctx.req_tx.send(Req::Report(tx)).is_ok() {
                    if let Ok(line) = rx.recv() {
                        let _ = write
                            .write_all(format!("{line}\n").as_bytes())
                            .and_then(|()| write.flush());
                        continue;
                    }
                }
                reply(&mut write, err("daemon is shutting down"));
            }
            Some("status") => {
                let (tx, rx) = mpsc::channel();
                if ctx.req_tx.send(Req::Status(tx)).is_ok() {
                    if let Ok(line) = rx.recv() {
                        let _ = write
                            .write_all(format!("{line}\n").as_bytes())
                            .and_then(|()| write.flush());
                        continue;
                    }
                }
                reply(&mut write, err("daemon is shutting down"));
            }
            Some("shutdown") => {
                let _ = ctx.req_tx.send(Req::Shutdown);
                reply(
                    &mut write,
                    Json::obj().with("ok", true).with("stopping", true),
                );
                return;
            }
            _ => reply(&mut write, err("unknown cmd")),
        }
    }
}

/// The filesystem fallback: polls the corpus directory and synthesizes
/// edit requests for files whose content changed out of band. It lists the
/// directory as the convergence anchor does ([`load_project`]), and a tick
/// whose listing fails sends nothing. The engine drops edits that match its
/// current state, so observing the daemon's own writes (from socket edits)
/// is a harmless no-op. Uses a *blocking* send: under overload the poller
/// self-throttles instead of shedding (its edits are re-observable from
/// disk, but blocking is simpler and lossless).
fn spawn_poller(
    dir: PathBuf,
    poll_ms: u64,
    req_tx: SyncSender<Req>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    let project = Project::Dir(dir);
    // The baseline is read before the thread exists: a file written after
    // `serve()` has returned can never be mistaken for part of it.
    let mut snapshot: std::collections::BTreeMap<String, u64> = load_project(&project)
        .unwrap_or_default()
        .into_iter()
        .map(|unit| (unit.name, sga_utils::fxhash::hash_one(&unit.source)))
        .collect();
    std::thread::spawn(move || loop {
        // Parked, not asleep: `ServerHandle::wait` unparks the poller so
        // shutdown does not wait out a poll period. A spurious wake-up only
        // makes one scan early.
        std::thread::park_timeout(Duration::from_millis(poll_ms));
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(units) = load_project(&project) else {
            continue;
        };
        let mut edits = Vec::new();
        for unit in units {
            let hash = sga_utils::fxhash::hash_one(&unit.source);
            if snapshot.insert(unit.name.clone(), hash) != Some(hash) {
                edits.push((unit.name, unit.source));
            }
        }
        if !edits.is_empty() && req_tx.send(Req::Edits(edits)).is_err() {
            return;
        }
    })
}

#[cfg(test)]
mod tests;
